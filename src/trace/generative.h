// Decode-length distributions for generative (autoregressive) traces.
//
// A generative request is (prefill_len, decode_len): the prompt length comes
// from the existing Twitter length model, the output length from one of the
// distributions parsed here.  The spec grammar (the --decode-len-dist flag):
//
//   short                  lognormal, median 32 / p98 96, max 256
//   long                   lognormal, median 128 / p98 384, max 1024
//   mixed                  0.65 short + 0.35 long (chatbot-style tail)
//   const:N                every request decodes exactly N tokens
//   uniform:LO:HI          integer-uniform in [LO, HI]
//   lognormal:MED:P98:MAX  truncated lognormal from two quantiles
//
// Every argument is an integer in [1, 65536].
//
// See docs/GENERATIVE.md.
#pragma once

#include <memory>
#include <string>

#include "trace/length_distribution.h"

namespace arlo::trace {

/// Parses a --decode-len-dist spec.  Throws std::invalid_argument with a
/// stable (golden-tested) message naming the bad spec and the grammar.
std::shared_ptr<const LengthDistribution> ParseDecodeLengthDist(
    const std::string& spec);

/// The named presets, comma-joined, for help text and error messages.
std::string DecodeLengthDistNames();

}  // namespace arlo::trace

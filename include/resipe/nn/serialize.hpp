// Model weight serialization.
//
// Architecture-agnostic parameter dump: the file stores the flattened
// parameter tensors in layer order.  Loading requires a model with the
// identical architecture (sizes are checked).  Used to cache trained
// benchmark networks between bench runs so Fig. 7 does not retrain six
// nets every time.
#pragma once

#include <string>

#include "resipe/nn/model.hpp"

namespace resipe::nn {

/// Writes all parameters of `model` to `path` (binary).  Throws on I/O
/// failure.
void save_weights(Sequential& model, const std::string& path);

/// Loads parameters saved by save_weights into `model`, all or
/// nothing.  Throws, leaving every parameter unchanged, when the file
/// does not exist, is corrupt or truncated, has trailing bytes, holds a
/// NaN or infinite value (named by parameter index and element), or
/// the parameter layout does not match.
void load_weights(Sequential& model, const std::string& path);

/// True when load_weights(model, path) would succeed: `path` exists,
/// matches the model's parameter layout and passes every check.
bool weights_compatible(Sequential& model, const std::string& path);

}  // namespace resipe::nn

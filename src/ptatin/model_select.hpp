// Model selection from the options database.
//
// One place translates "-model sinker -m 8 -contrast 1e3" into a
// ModelSetup, so the driver and the tests resolve identical defaults.
#pragma once

#include "common/options.hpp"
#include "ptatin/model.hpp"

namespace ptatin {

/// Register the -model/-m/-mx/... option descriptions for Options::help_text()
/// and unknown-key validation.
void describe_model_options();

/// Build the model named by -model (default sinker) with its parameters
/// resolved from the options database. Throws Error on an unknown -model
/// value.
ModelSetup build_model_from_options(const Options& o);

} // namespace ptatin

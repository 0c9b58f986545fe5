#include "fem/kernel_spec.hpp"

#include "common/error.hpp"

namespace ptatin {

const char* fine_operator_token(FineOperatorType t) {
  // The one place that spells the tokens; config parsing and kernel labels
  // route through here or its inverse parse_fine_operator().
  static const char* kTokens[] = {"asmb", "mf", "tens", "tensc"};
  return kTokens[static_cast<int>(t)];
}

const char* fine_operator_display(FineOperatorType t) {
  static const char* kNames[] = {"Asmb", "MF", "Tens", "TensC"};
  return kNames[static_cast<int>(t)];
}

FineOperatorType parse_fine_operator(const std::string& token) {
  if (token == "asmb") return FineOperatorType::kAssembled;
  if (token == "mf") return FineOperatorType::kMatrixFree;
  if (token == "tens") return FineOperatorType::kTensor;
  PT_THROW("unknown backend '" + token + "' (expected asmb|mf|tens)");
}

std::string kernel_label(const KernelSpec& spec) {
  return std::string(fine_operator_token(spec.type)) + "/b" +
         std::to_string(spec.batch_width) +
         (spec.engine == nullptr ? "/global" : "/subdomain");
}

} // namespace ptatin

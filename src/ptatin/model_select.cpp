#include "ptatin/model_select.hpp"

#include "common/error.hpp"
#include "ptatin/models_rifting.hpp"
#include "ptatin/models_sinker.hpp"

namespace ptatin {

namespace {

SinkerParams sinker_params(const Options& o) {
  SinkerParams p;
  p.mx = p.my = p.mz = o.get_index("m", 8);
  p.num_spheres = o.get_index("spheres", 8);
  p.radius = o.get_real("radius", 0.1);
  p.contrast = o.get_real("contrast", 1e3);
  return p;
}

RiftingParams rifting_params(const Options& o) {
  RiftingParams p;
  p.mx = o.get_index("mx", 16);
  p.my = o.get_index("my", 8);
  p.mz = o.get_index("mz", 8);
  p.extension_rate = o.get_real("extension", 1.0);
  p.shortening_rate = o.get_real("shortening", 0.0);
  return p;
}

} // namespace

void describe_model_options() {
  Options::describe("model", "sinker|rifting", "model selection");
  Options::describe("m", "N", "sinker mesh resolution (cubic)");
  Options::describe("mx", "N", "mesh elements in x (rifting)");
  Options::describe("my", "N", "mesh elements in y");
  Options::describe("mz", "N", "mesh elements in z");
  Options::describe("spheres", "N", "sinker sphere count");
  Options::describe("radius", "X", "sinker sphere radius");
  Options::describe("contrast", "X", "sinker viscosity contrast");
  Options::describe("extension", "X", "rifting extension rate");
  Options::describe("shortening", "X", "rifting z-shortening rate");
}

ModelSetup build_model_from_options(const Options& o) {
  const std::string model = o.get_string("model", "sinker");
  if (model == "rifting") return make_rifting_model(rifting_params(o));
  PT_ASSERT_MSG(model == "sinker", "unknown -model (expected sinker|rifting)");
  return make_sinker_model(sinker_params(o));
}

} // namespace ptatin

#include "ptatin/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"
#include "ptatin/context.hpp"

namespace ptatin {

namespace {

constexpr std::uint64_t kMagic = 0x70543344636B7032ull; // "pT3Dckp2"
constexpr std::uint32_t kVersion = 2;

// Section fourcc ids (little-endian "MESH"/"FLDS"/"PNTS").
constexpr std::uint32_t kSecMesh = 0x4853454Du;
constexpr std::uint32_t kSecFields = 0x53444C46u;
constexpr std::uint32_t kSecPoints = 0x53544E50u;

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <class T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  PT_ASSERT_MSG(bool(is), "checkpoint: unexpected end of file");
  return v;
}

void write_reals(std::ostream& os, const Real* data, std::uint64_t n) {
  write_pod(os, n);
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(n * sizeof(Real)));
}

std::vector<Real> read_reals(std::istream& is) {
  const std::uint64_t n = read_pod<std::uint64_t>(is);
  std::vector<Real> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(Real)));
  PT_ASSERT_MSG(bool(is), "checkpoint: truncated array");
  return v;
}

void write_vector(std::ostream& os, const Vector& v) {
  write_reals(os, v.data(), static_cast<std::uint64_t>(v.size()));
}

void read_vector_into(std::istream& is, Vector& v, const char* what) {
  const std::vector<Real> data = read_reals(is);
  PT_ASSERT_MSG(static_cast<Index>(data.size()) == v.size(),
                std::string("checkpoint: size mismatch for ") + what);
  for (Index i = 0; i < v.size(); ++i) v[i] = data[i];
}

// --- section payloads --------------------------------------------------------

std::string mesh_payload(const PtatinContext& ctx) {
  std::ostringstream os(std::ios::binary);
  const StructuredMesh& mesh = ctx.mesh();
  write_pod<std::int64_t>(os, mesh.mx());
  write_pod<std::int64_t>(os, mesh.my());
  write_pod<std::int64_t>(os, mesh.mz());
  write_reals(os, mesh.coords().data(),
              static_cast<std::uint64_t>(mesh.coords().size()));
  return os.str();
}

std::string fields_payload(const PtatinContext& ctx) {
  std::ostringstream os(std::ios::binary);
  write_vector(os, ctx.velocity());
  write_vector(os, ctx.pressure());
  write_vector(os, ctx.temperature()); // may be empty (no energy equation)
  return os.str();
}

std::string points_payload(const PtatinContext& ctx) {
  std::ostringstream os(std::ios::binary);
  const MaterialPoints& pts = ctx.points();
  write_pod<std::uint64_t>(os, static_cast<std::uint64_t>(pts.size()));
  for (Index i = 0; i < pts.size(); ++i) {
    const Vec3 x = pts.position(i);
    write_pod(os, x[0]);
    write_pod(os, x[1]);
    write_pod(os, x[2]);
    write_pod<std::int32_t>(os, pts.lithology(i));
    write_pod(os, pts.plastic_strain(i));
    // Element + local coordinate make the restore bitwise: re-locating from
    // the position alone can land on a neighboring xi by round-off.
    write_pod<std::int64_t>(os, pts.element(i));
    const Vec3 xi = pts.local_coord(i);
    write_pod(os, xi[0]);
    write_pod(os, xi[1]);
    write_pod(os, xi[2]);
  }
  return os.str();
}

void apply_mesh(std::istream& is, PtatinContext& ctx) {
  StructuredMesh& mesh = ctx.mutable_mesh();
  const auto mx = read_pod<std::int64_t>(is);
  const auto my = read_pod<std::int64_t>(is);
  const auto mz = read_pod<std::int64_t>(is);
  PT_ASSERT_MSG(mx == mesh.mx() && my == mesh.my() && mz == mesh.mz(),
                "checkpoint: mesh dimensions do not match the model");
  const std::vector<Real> coords = read_reals(is);
  PT_ASSERT_MSG(coords.size() == mesh.coords().size(),
                "checkpoint: coordinate array size mismatch");
  mesh.coords() = coords;
}

void apply_fields(std::istream& is, PtatinContext& ctx) {
  read_vector_into(is, ctx.mutable_velocity(), "velocity");
  read_vector_into(is, ctx.mutable_pressure(), "pressure");
  read_vector_into(is, ctx.mutable_temperature(), "temperature");
}

void apply_points(std::istream& is, PtatinContext& ctx) {
  MaterialPoints& pts = ctx.points();
  pts.clear();
  const std::uint64_t n = read_pod<std::uint64_t>(is);
  pts.reserve(static_cast<Index>(n));
  const Index num_elements = ctx.mesh().num_elements();
  for (std::uint64_t i = 0; i < n; ++i) {
    Vec3 x;
    x[0] = read_pod<Real>(is);
    x[1] = read_pod<Real>(is);
    x[2] = read_pod<Real>(is);
    const auto lith = read_pod<std::int32_t>(is);
    const Real eps = read_pod<Real>(is);
    const auto el = read_pod<std::int64_t>(is);
    Vec3 xi;
    xi[0] = read_pod<Real>(is);
    xi[1] = read_pod<Real>(is);
    xi[2] = read_pod<Real>(is);
    const Index j = pts.add(x, lith, eps);
    if (el >= 0 && el < num_elements)
      pts.set_location(j, static_cast<Index>(el), xi);
    else
      pts.invalidate_location(j);
  }
}

struct Section {
  std::uint32_t id = 0;
  std::string payload;
};

void write_section(std::ostream& os, std::uint32_t id,
                   const std::string& payload) {
  write_pod(os, id);
  write_pod<std::uint64_t>(os, payload.size());
  write_pod<std::uint32_t>(os, crc32(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecMesh: return "MESH";
    case kSecFields: return "FLDS";
    case kSecPoints: return "PNTS";
    default: return "????";
  }
}

} // namespace

void save_checkpoint_stream(std::ostream& os, const PtatinContext& ctx,
                            const CheckpointMeta& meta) {
  fault::maybe_fail("checkpoint.write");

  const Section sections[] = {{kSecMesh, mesh_payload(ctx)},
                              {kSecFields, fields_payload(ctx)},
                              {kSecPoints, points_payload(ctx)}};

  // Header, protected by its own CRC so corruption cannot masquerade as an
  // impossible section count or step index.
  std::ostringstream hs(std::ios::binary);
  write_pod(hs, kMagic);
  write_pod(hs, kVersion);
  write_pod<std::uint32_t>(hs, std::uint32_t(std::size(sections)));
  write_pod<std::int64_t>(hs, meta.step);
  write_pod(hs, meta.sim_time);
  write_pod(hs, meta.dt_cap);
  const std::string header = hs.str();
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  write_pod<std::uint32_t>(os, crc32(header.data(), header.size()));

  for (const Section& s : sections) write_section(os, s.id, s.payload);
  PT_ASSERT_MSG(os.good(), "checkpoint: write failed");
}

CheckpointMeta load_checkpoint_stream(std::istream& is, PtatinContext& ctx) {
  fault::maybe_fail("checkpoint.read");

  // Header: re-serialize the fields just read and verify the stored CRC.
  std::ostringstream hs(std::ios::binary);
  const auto magic = read_pod<std::uint64_t>(is);
  PT_ASSERT_MSG(magic == kMagic,
                "checkpoint: bad magic (not a pTatin3D v2 checkpoint)");
  const auto version = read_pod<std::uint32_t>(is);
  PT_ASSERT_MSG(version == kVersion, "checkpoint: unsupported version");
  const auto section_count = read_pod<std::uint32_t>(is);
  CheckpointMeta meta;
  meta.step = read_pod<std::int64_t>(is);
  meta.sim_time = read_pod<double>(is);
  meta.dt_cap = read_pod<double>(is);
  write_pod(hs, magic);
  write_pod(hs, version);
  write_pod(hs, section_count);
  write_pod(hs, meta.step);
  write_pod(hs, meta.sim_time);
  write_pod(hs, meta.dt_cap);
  const std::string header = hs.str();
  const auto header_crc = read_pod<std::uint32_t>(is);
  PT_ASSERT_MSG(header_crc == crc32(header.data(), header.size()),
                "checkpoint: header checksum mismatch (corrupt header)");
  PT_ASSERT_MSG(section_count >= 1 && section_count <= 64,
                "checkpoint: implausible section count");

  // Read and CRC-verify every section BEFORE applying any of them, so a
  // corrupt trailing section can never leave the context half-restored.
  std::vector<Section> sections(section_count);
  for (Section& s : sections) {
    s.id = read_pod<std::uint32_t>(is);
    const auto bytes = read_pod<std::uint64_t>(is);
    const auto crc = read_pod<std::uint32_t>(is);
    s.payload.resize(bytes);
    is.read(s.payload.data(), static_cast<std::streamsize>(bytes));
    PT_ASSERT_MSG(bool(is), std::string("checkpoint: truncated section ") +
                                section_name(s.id));
    PT_ASSERT_MSG(crc == crc32(s.payload.data(), s.payload.size()),
                  std::string("checkpoint: checksum mismatch in section ") +
                      section_name(s.id));
  }

  for (const Section& s : sections) {
    std::istringstream ps(s.payload, std::ios::binary);
    switch (s.id) {
      case kSecMesh: apply_mesh(ps, ctx); break;
      case kSecFields: apply_fields(ps, ctx); break;
      case kSecPoints: apply_points(ps, ctx); break;
      default:
        // Unknown (future) sections are checksummed and skipped, so adding a
        // section is not a breaking format change.
        log_warn("checkpoint: skipping unknown section id ", s.id);
    }
  }
  return meta;
}

namespace {

/// Flush file contents to stable storage; a rename is only atomic-durable if
/// the data blocks preceded it to disk.
void fsync_file(const std::string& path) {
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// Deterministic post-publication corruption for the fault sites
/// "checkpoint.torn_write" (truncate: the tail never reached disk) and
/// "checkpoint.bitflip" (flip one payload bit: silent media corruption).
void maybe_corrupt_published(const std::string& path) {
  namespace fs = std::filesystem;
  if (fault::fires("checkpoint.torn_write")) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec && size > 0) fs::resize_file(path, size / 2, ec);
  }
  if (fault::fires("checkpoint.bitflip")) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    if (f) {
      f.seekg(0, std::ios::end);
      const auto size = f.tellg();
      if (size > 0) {
        f.seekg(-1, std::ios::end);
        char byte = 0;
        f.get(byte);
        f.seekp(-1, std::ios::end);
        f.put(char(byte ^ 0x01));
      }
    }
  }
}

} // namespace

void save_checkpoint(const std::string& path, const PtatinContext& ctx,
                     const CheckpointMeta& meta) {
  PerfScope span("CheckpointSave");
  std::ostringstream os(std::ios::binary);
  save_checkpoint_stream(os, ctx, meta);
  const std::string blob = os.str();

  // Atomic publication: a reader (or a restart after a kill) either sees the
  // previous checkpoint or the complete new one, never a torn write.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    PT_ASSERT_MSG(f.good(), "checkpoint: cannot open " + tmp);
    f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    f.flush();
    PT_ASSERT_MSG(f.good(), "checkpoint: write failed for " + tmp);
  }
  fsync_file(tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  PT_ASSERT_MSG(!ec, "checkpoint: cannot publish " + path + ": " + ec.message());

  maybe_corrupt_published(path);

  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("checkpoint.saves").inc();
  metrics.counter("checkpoint.save_bytes").inc((long long)blob.size());
}

CheckpointMeta load_checkpoint(const std::string& path, PtatinContext& ctx) {
  PerfScope span("CheckpointLoad");
  std::ifstream is(path, std::ios::binary);
  PT_ASSERT_MSG(is.good(), "checkpoint: cannot open " + path);
  const CheckpointMeta meta = load_checkpoint_stream(is, ctx);
  obs::MetricsRegistry::instance().counter("checkpoint.loads").inc();
  return meta;
}

// --- rotation ----------------------------------------------------------------

CheckpointRotation::CheckpointRotation(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(keep) {
  PT_ASSERT_MSG(keep_ >= 1, "checkpoint rotation: keep must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PT_ASSERT_MSG(!ec, "checkpoint rotation: cannot create " + dir_);
}

std::vector<std::string> CheckpointRotation::list() const {
  namespace fs = std::filesystem;
  std::vector<std::string> files;

  // Each checkpoint is published by an atomic rename, so the scan finds
  // exactly the complete ones. Names encode the step zero-padded, so a
  // lexicographic sort is oldest-to-newest.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bin") == 0)
      files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string CheckpointRotation::save(const PtatinContext& ctx,
                                     const CheckpointMeta& meta) {
  namespace fs = std::filesystem;
  char name[32];
  std::snprintf(name, sizeof name, "ckpt_%06lld.bin",
                (long long)meta.step);
  const std::string path = (fs::path(dir_) / name).string();
  save_checkpoint(path, ctx, meta);

  std::vector<std::string> files = list();
  auto& metrics = obs::MetricsRegistry::instance();
  while (files.size() > std::size_t(keep_)) {
    std::error_code ec;
    fs::remove(files.front(), ec);
    if (!ec) metrics.counter("checkpoint.pruned").inc();
    files.erase(files.begin());
  }
  return path;
}

CheckpointRotation::LoadResult CheckpointRotation::load_latest(
    PtatinContext& ctx) {
  const std::vector<std::string> files = list();
  PT_ASSERT_MSG(!files.empty(),
                "checkpoint rotation: no checkpoints in " + dir_);

  LoadResult res;
  auto& metrics = obs::MetricsRegistry::instance();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      res.meta = load_checkpoint(*it, ctx);
      res.path = *it;
      auto& state = obs::SolverReport::global().state();
      state.restart_step = res.meta.step;
      state.restart_path = res.path;
      state.corrupt_skipped.insert(state.corrupt_skipped.end(),
                                   res.skipped.begin(), res.skipped.end());
      metrics.counter("checkpoint.restarts").inc();
      return res;
    } catch (const Error& e) {
      log_warn("checkpoint: ", *it, " failed verification (", e.what(),
               ") — falling back to the previous checkpoint");
      res.skipped.push_back(*it);
      metrics.counter("checkpoint.corrupt_skipped").inc();
    }
  }
  auto& state = obs::SolverReport::global().state();
  state.corrupt_skipped.insert(state.corrupt_skipped.end(),
                               res.skipped.begin(), res.skipped.end());
  PT_THROW("checkpoint rotation: no checkpoint in " << dir_
           << " verified (" << res.skipped.size() << " corrupt)");
}

// --- in-memory snapshot ------------------------------------------------------

void MemoryCheckpoint::capture(const PtatinContext& ctx) {
  std::ostringstream os(std::ios::binary);
  save_checkpoint_stream(os, ctx);
  data_ = os.str();
}

void MemoryCheckpoint::restore(PtatinContext& ctx) const {
  PT_ASSERT_MSG(valid(), "checkpoint: restore without a captured snapshot");
  std::istringstream is(data_, std::ios::binary);
  load_checkpoint_stream(is, ctx);
}

// --- state digest ------------------------------------------------------------

bool StateDigest::operator==(const StateDigest& o) const {
  return coords_crc == o.coords_crc && velocity_crc == o.velocity_crc &&
         pressure_crc == o.pressure_crc &&
         temperature_crc == o.temperature_crc && points_crc == o.points_crc &&
         num_points == o.num_points && num_elements == o.num_elements;
}

StateDigest digest_state(const PtatinContext& ctx) {
  StateDigest d;
  const StructuredMesh& mesh = ctx.mesh();
  d.coords_crc =
      crc32(mesh.coords().data(), mesh.coords().size() * sizeof(Real));
  d.velocity_crc = crc32(ctx.velocity().data(),
                         std::size_t(ctx.velocity().size()) * sizeof(Real));
  d.pressure_crc = crc32(ctx.pressure().data(),
                         std::size_t(ctx.pressure().size()) * sizeof(Real));
  d.temperature_crc =
      crc32(ctx.temperature().data(),
            std::size_t(ctx.temperature().size()) * sizeof(Real));
  const MaterialPoints& pts = ctx.points();
  std::uint32_t c = 0;
  for (Index i = 0; i < pts.size(); ++i) {
    const Vec3 x = pts.position(i);
    c = crc32(x.data(), sizeof(Real) * 3, c);
    const std::int32_t lith = pts.lithology(i);
    c = crc32(&lith, sizeof lith, c);
    const Real eps = pts.plastic_strain(i);
    c = crc32(&eps, sizeof eps, c);
  }
  d.points_crc = c;
  d.num_points = pts.size();
  d.num_elements = mesh.num_elements();
  return d;
}

} // namespace ptatin

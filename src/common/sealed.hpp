// CRC32 seals over quiescent state — the silent-data-corruption (SDC)
// detection substrate (docs/ROBUSTNESS.md).
//
// A bit flipped by bad DRAM, a cosmic ray, or a buggy out-of-bounds write
// sails straight past the NaN/Jacobian health checks: a low-mantissa flip is
// still finite and still physically plausible, yet it silently poisons every
// subsequent step of a week-long run. The defense is to *seal* data that is
// supposed to be quiescent — model state between time steps, setup-immutable
// objects such as assembled CSR matrices and Galerkin coarse operators — by
// recording a CRC32 per byte region, then verifying the bytes have not
// changed before the data is trusted again.
//
// A `Seal` is a value type owned by whoever also owns the mutation schedule:
// the safeguarded stepper seals the model state at the end of each step and
// verifies it on reentry; each GMG/AMG hierarchy seals its operators at the
// end of setup, and the Stokes solver verifies them after every solve
// (verify_operator_seal). Arm/verify/disarm are explicit.
//
// Seals are pure readers: arming or verifying never mutates the sealed data,
// so enabling them cannot perturb a bitwise-deterministic trajectory.
// Legitimate mutations go through the owner (which re-arms) — a mismatch
// therefore *is* corruption, not a stale seal.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin::sdc {

/// One contiguous byte region under a seal. `name` localizes a mismatch in
/// logs and reports ("state.velocity", "gmg.L0.values", ...).
struct Region {
  std::string name;
  const void* data = nullptr;
  std::size_t bytes = 0;
};

/// Value-type seal: records (name, size, crc) per region when armed;
/// verify() re-reads the bytes and returns the names of regions whose size
/// or checksum changed. The owner enumerates the regions afresh at every
/// arm and verify, so sealed containers may reallocate between re-arms
/// without dangling pointers. Not thread-safe — owned by a single writer.
class Seal {
public:
  /// Seal the regions as they are now. Replaces any previous arming.
  void arm(const std::vector<Region>& regions);
  void disarm() { entries_.clear(); }
  bool armed() const { return !entries_.empty(); }

  /// Names of regions that no longer match the armed checksums. A region
  /// count or size change also reports (corruption is not limited to
  /// in-place flips). Empty = intact.
  std::vector<std::string> verify(const std::vector<Region>& regions) const;

private:
  struct Entry {
    std::string name;
    std::size_t bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Entry> entries_;
};

/// Verify an operator seal for its owner `owner` ("gmg.operators", ...):
/// returns "owner/region" for each mismatch, counts one sdc.seal_verifies
/// and each mismatch in sdc.seal_mismatches, and logs every mismatch.
std::vector<std::string> verify_operator_seal(
    const std::string& owner, const Seal& seal,
    const std::vector<Region>& regions);

/// Classify a stepper failure string as silent data corruption: state-seal
/// failures are prefixed "sdc:", while Krylov sentinel trips and operator
/// seal mismatches fail their solve with a "diverged_sdc" reason inside the
/// nonlinear failure detail. The driver maps these to exit code 6.
inline bool is_sdc_failure(const std::string& failure) {
  return failure.rfind("sdc:", 0) == 0 ||
         failure.find("diverged_sdc") != std::string::npos;
}

/// Flip the lowest mantissa bit of `v` — the canonical injected SDC: the
/// result is finite, physically plausible, and invisible to every
/// range/NaN-based health check. Used by the sdc.*_bitflip fault sites.
inline Real flip_low_mantissa_bit(Real v) {
  static_assert(sizeof(Real) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1ull;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

} // namespace ptatin::sdc

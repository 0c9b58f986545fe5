// Durable binary checkpoint / restart of the time-stepping state.
//
// Long-term lithospheric runs are 1500-2000 time steps (§V-A); production
// use requires saving and resuming the full model state: mesh geometry (ALE
// deformed), velocity/pressure/temperature fields, and every material point
// with its history variables — and surviving job kills, torn writes, and
// silent corruption while doing it (docs/ROBUSTNESS.md).
//
// Format (little-endian binary, version 2): a fixed header (magic, version,
// section count, step/time/dt-cap metadata) protected by its own CRC32,
// followed by sections. Each section is a fourcc id, a payload length, a
// CRC32 of the payload, and the payload bytes. Sections: MESH (dimensions +
// ALE-deformed coordinates), FLDS (velocity/pressure/temperature), PNTS
// (material point positions, lithology, plastic strain, and element/local
// coordinates so a restore is bitwise — no relocation round-off). Loading
// verifies every CRC *before* applying any section to the context. The
// ModelSetup (materials, BCs, callbacks) is code, not data — a restart
// constructs the same model and then loads the state into it.
//
// Durability on disk: save_checkpoint writes to "<path>.tmp", flushes and
// fsyncs, then atomically renames — readers never observe a half-written
// file. CheckpointRotation manages a checkpoint directory holding the last K
// checkpoints, and load_latest falls back to the newest checkpoint that
// verifies, recording what was skipped.
//
// Two transports share the format: files (save/load_checkpoint) and
// std::iostream streams (the *_stream variants). MemoryCheckpoint layers an
// in-memory snapshot on the stream path so the timestep safeguard tier can
// roll a failed step back without touching the filesystem.
//
// Fault sites (common/faultinject.hpp): "checkpoint.write" (throws from the
// writer), "checkpoint.read" (throws from the reader, before any CRC check),
// "checkpoint.torn_write" (truncates the published file, simulating a crash
// before data blocks hit disk), "checkpoint.bitflip" (flips one payload bit
// after the CRC was computed, simulating silent media corruption).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin {

class PtatinContext;

/// Run position stored in the checkpoint header so a restart resumes the
/// step counter, simulated time, and the safeguard tier's dt recovery cap.
struct CheckpointMeta {
  std::int64_t step = 0;  ///< last completed step index (1-based)
  double sim_time = 0.0;  ///< accumulated simulated time
  double dt_cap = 0.0;    ///< safeguard dt cap (0 = none / infinity)
};

/// Write the full mutable state of `ctx` to `path` atomically (tmp + fsync +
/// rename). Throws Error on I/O failure.
void save_checkpoint(const std::string& path, const PtatinContext& ctx,
                     const CheckpointMeta& meta = {});

/// Restore state saved by save_checkpoint into a context built from the
/// same model setup. Verifies the header and every section CRC before any
/// state is applied; throws Error on mismatch, truncation, or corruption.
/// Returns the stored run position.
CheckpointMeta load_checkpoint(const std::string& path, PtatinContext& ctx);

/// Stream-level transport behind the file API. Throws Error on stream
/// failure (fault sites "checkpoint.write" / "checkpoint.read" can force
/// one, see common/faultinject.hpp).
void save_checkpoint_stream(std::ostream& os, const PtatinContext& ctx,
                            const CheckpointMeta& meta = {});
CheckpointMeta load_checkpoint_stream(std::istream& is, PtatinContext& ctx);

/// Rotation directory: keeps the last `keep` checkpoints. File names encode
/// the step ("ckpt_<step>.bin").
class CheckpointRotation {
public:
  /// Creates `dir` if needed. keep >= 1.
  CheckpointRotation(std::string dir, int keep = 3);

  /// Checkpoint the state, publish atomically and prune beyond `keep`.
  /// Returns the published path. Throws Error on I/O failure (the previous
  /// checkpoints are left intact).
  std::string save(const PtatinContext& ctx, const CheckpointMeta& meta);

  struct LoadResult {
    std::string path;                  ///< checkpoint that verified and loaded
    CheckpointMeta meta;               ///< its stored run position
    std::vector<std::string> skipped;  ///< newer checkpoints that failed
                                       ///< verification and were bypassed
  };

  /// Restore the newest checkpoint that verifies, walking backwards over
  /// corrupt ones (each recorded in `skipped`, counted in
  /// checkpoint.corrupt_skipped, and reported in the solver report's state
  /// section). Throws Error when no checkpoint in the directory verifies.
  LoadResult load_latest(PtatinContext& ctx);

  /// Checkpoint files currently on disk, oldest to newest (a directory
  /// scan: each file is published by an atomic rename).
  std::vector<std::string> list() const;

  const std::string& dir() const { return dir_; }
  int keep() const { return keep_; }

private:
  std::string dir_;
  int keep_ = 3;
};

/// In-memory snapshot of a context's mutable state, used by the timestep
/// safeguard tier to roll back a failed step. capture() may throw (e.g.
/// under fault injection); restore() requires a prior successful capture.
class MemoryCheckpoint {
public:
  /// Snapshot the full state of `ctx`. Replaces any previous snapshot.
  void capture(const PtatinContext& ctx);

  /// Restore the captured state into `ctx`. Throws Error if nothing was
  /// captured or the snapshot does not match the model.
  void restore(PtatinContext& ctx) const;

  bool valid() const { return !data_.empty(); }
  std::size_t size_bytes() const { return data_.size(); }

private:
  std::string data_;
};

/// Bitwise digest of the mutable model state: one CRC32 per state array plus
/// element counts. Two runs that agree here agree on every state bit — the
/// restart round-trip tests and the driver's -final_state output compare
/// these instead of shipping the fields.
struct StateDigest {
  std::uint32_t coords_crc = 0;
  std::uint32_t velocity_crc = 0;
  std::uint32_t pressure_crc = 0;
  std::uint32_t temperature_crc = 0;
  std::uint32_t points_crc = 0;  ///< positions + lithology + plastic strain
  std::int64_t num_points = 0;
  std::int64_t num_elements = 0;

  bool operator==(const StateDigest& o) const;
  bool operator!=(const StateDigest& o) const { return !(*this == o); }
};

StateDigest digest_state(const PtatinContext& ctx);

} // namespace ptatin

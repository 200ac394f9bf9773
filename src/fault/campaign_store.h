// Durable campaign state: checkpoint files, the streamed per-slot JSONL
// record, and shard merging (docs/PROTOCOL.md §10).
//
// A fault campaign is itself n independent work units that must tolerate the
// failure of the worker running them (the Dwork/Halpern/Waarts framing): one
// preemption must not throw away every completed slot of a long sweep.
// Because the slot engine's randomness is a pure function of
// (seed, stream, slot, attempt) — docs/PROTOCOL.md §8 — a slot's outcome can
// be persisted once and never re-run: this module stores, per completed
// global slot, everything the in-order aggregation needs, so a resumed or
// merged campaign reconstructs a CampaignSummary bit-identical to an
// uninterrupted serial run.
//
// Three artifacts:
//
//   * checkpoint (binary, versioned, fnv1a64-digest-protected, written
//     crash-safely via util::write_file_atomic) — campaign identity, the
//     slots-completed bitmap (util::BitVec) and one SlotRecord per completed
//     slot.  Any truncation, bit flip or identity mismatch loads as a loud,
//     specific StoreStatus — never a crash, never a silent partial resume.
//
//   * slot stream (JSONL, schema "aoft-campaign-v1") — one record per slot,
//     emitted incrementally in global-slot order while the campaign runs, so
//     a killed run's partial results are already on disk.  Dropped slots and
//     redraw exhaustion are visible per record, not only in the end-of-run
//     tally.  On resume the stream is re-validated and any torn tail is
//     truncated; the completed file is byte-identical to the one an
//     uninterrupted run writes.
//
//   * merge — `--shard=i/N` partitions the global slot space by residue;
//     merge_checkpoints folds N disjoint shard checkpoints back into the
//     canonical whole, bit-identical across sharding layouts.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "util/bitvec.h"

namespace aoft::fault {

// Version 2 added the identity's transport byte; v1 files load as
// kBadVersion — loud, never a silent cross-transport resume.
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr char kCheckpointMagic[8] = {'A', 'O', 'F', 'T',
                                             'C', 'K', 'P', '1'};
inline constexpr const char* kCampaignStreamSchema = "aoft-campaign-v1";

// Everything that must match for two campaign artifacts to describe the same
// slot space.  Two checkpoints resume/merge only when every field (modulo
// shard_index, for merging) is equal.
struct CampaignIdentity {
  std::int32_t dim = 0;
  std::uint64_t block = 1;
  std::int32_t runs_per_class = 0;
  std::uint64_t seed = 0;
  std::uint8_t mode = 0;         // fault::InjectionMode
  std::uint64_t p_bits = 0;      // bit pattern of InjectionPolicy::p
  std::uint64_t k = 1;           // InjectionPolicy::k
  std::uint32_t checks = 0xF;    // predicate ablation bits (P|F<<1|C<<2|X<<3)
  std::uint8_t transport = 0;    // transport::Backend that ran the slots
  std::int32_t shard_index = 0;
  std::int32_t shard_count = 1;

  friend bool operator==(const CampaignIdentity&,
                         const CampaignIdentity&) = default;

  // Equal in every field that defines the slot space and its results — i.e.
  // everything except which shard this artifact covers.
  bool same_campaign(const CampaignIdentity& o) const;
};

CampaignIdentity identity_of(const CampaignConfig& cfg);

// Reconstruct the CampaignConfig fields the aggregation functions read.
CampaignConfig config_of(const CampaignIdentity& id);

// The serialized outcome of one completed global slot.  `exercised == false`
// means the slot completed by exhausting its redraw budget (dropped).
struct SlotRecord {
  std::uint64_t gslot = 0;
  std::int32_t attempts = 0;
  bool exercised = false;
  // Scripted-mode payload (valid when exercised):
  Scenario scenario{};
  sort::Outcome outcome{};
  sim::ErrorSource first_detector{};
  std::int32_t detection_stage = -1;
  bool snr_counted = false;
  sort::Outcome snr_outcome{};
  // Arrival accounting (both modes):
  std::uint64_t faults_fired = 0;
  std::uint32_t faulty_nodes = 0;
  // Soak mode, silent-wrong beyond the resilience bound: observed
  // dislocation of the output (max displacement from its sorted order).
  std::uint64_t dislocation = 0;

  friend bool operator==(const SlotRecord&, const SlotRecord&) = default;
};

// Why a checkpoint could not be used.  Every corruption shape a crash can
// produce maps to a distinct, loud status (tests/fault/
// campaign_checkpoint_test.cpp exercises each).
enum class StoreStatus : std::uint8_t {
  kOk,
  kMissing,           // no file at the path
  kTruncated,         // shorter than its own framing claims
  kBadMagic,          // not a checkpoint file (garbage)
  kBadVersion,        // a future/unknown checkpoint format
  kDigestMismatch,    // payload bytes corrupted
  kMalformed,         // digest ok but internally inconsistent
  kIdentityMismatch,  // a different campaign's checkpoint
};

const char* to_string(StoreStatus s);

// Thrown by the campaign engine when --resume meets an unusable checkpoint
// or stream (and force-restart was not requested).
class StoreError : public std::runtime_error {
 public:
  StoreError(StoreStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  StoreStatus status() const { return status_; }

 private:
  StoreStatus status_;
};

struct CheckpointData {
  CampaignIdentity identity;
  util::BitVec done;               // one bit per global slot
  std::vector<SlotRecord> records; // ascending gslot, one per set bit
};

// Serialize/deserialize a checkpoint.  save writes crash-safely
// (temp → fsync → rename); load never throws — every failure shape returns
// its status and a human-readable `error`.
bool save_checkpoint(const std::string& path, const CheckpointData& data,
                     std::string* error);
StoreStatus load_checkpoint(const std::string& path, CheckpointData* out,
                            std::string* error);

// ---- slot space -------------------------------------------------------------

// Global slot space: scripted campaigns use active_classes(dim) blocks of
// runs_per_class slots each (class order = kAllFaultClasses order); soak
// campaigns use a single block of runs_per_class slots.
std::size_t identity_total_slots(const CampaignIdentity& id);

// Ascending global slot indices owned by this identity's shard
// (g % shard_count == shard_index) — also the stream emission order.
std::vector<std::uint64_t> shard_slots(const CampaignIdentity& id);

// Display name of the class owning global slot g ("soak" in soak mode).
const char* slot_class_name(const CampaignIdentity& id, std::uint64_t g);

// The record for global slot g, or nullptr (records are ascending by gslot).
const SlotRecord* find_record(const CheckpointData& store, std::uint64_t g);

// ---- aggregation ------------------------------------------------------------

// Rebuild the canonical aggregates from whatever records are present.
// Missing slots (another shard's, or not yet executed) contribute nothing —
// summaries over a complete record set are bit-identical to an uninterrupted
// serial run's.
CampaignSummary summarize_slots(const CampaignConfig& cfg,
                                const CheckpointData& store);
SoakTally summarize_soak(const CampaignConfig& cfg,
                         const CheckpointData& store);

// Fold shard checkpoints into one canonical (shard 0/1) checkpoint.  All
// parts must be the same campaign, carry distinct in-range shard indices and
// the same shard_count, and own only slots of their residue class.  Partial
// coverage is allowed — the caller reads done.count() to judge.
StoreStatus merge_checkpoints(const std::vector<CheckpointData>& parts,
                              CheckpointData* out, std::string* error);

// ---- streaming --------------------------------------------------------------

// Canonical JSONL lines (fixed field order; byte-equality of two complete
// streams is record-equality of two campaigns).
std::string stream_header(const CampaignIdentity& id);
std::string stream_line(const CampaignIdentity& id, const SlotRecord& rec);

// Incremental, ordered emitter for the slot stream.  The engine feeds
// records strictly in shard_slots() order; every append is flushed, so a
// crash loses at most one torn (or not-yet-checkpointed) tail line.
class SlotStream {
 public:
  SlotStream() = default;

  // Start (or restart) the stream file: atomically rewrite it as `header`
  // plus the already-completed `prefix` lines — empty for a fresh campaign,
  // the checkpoint's in-order completed records on resume.  Rebuilding the
  // prefix from checkpoint records (rather than trusting whatever bytes a
  // killed process left) is what discards torn tails and lines that ran
  // ahead of the last checkpoint save, and what makes the finished file
  // byte-identical to an uninterrupted run's.  With `resume`, an existing
  // file must begin with the same header line — a different header means
  // the path belongs to another campaign and is refused, not clobbered.
  bool open(const std::string& path, const std::string& header,
            const std::vector<std::string>& prefix, bool resume,
            std::string* error);

  // Records on disk so far (a prefix of shard_slots order).
  std::size_t emitted() const { return emitted_; }

  // Append one line (the next record in emission order) and flush.
  bool append(const std::string& line, std::string* error);

  bool active() const { return !path_.empty(); }

 private:
  std::string path_;
  std::size_t emitted_ = 0;
};

}  // namespace aoft::fault

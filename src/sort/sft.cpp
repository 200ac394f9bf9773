#include "sort/sft.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "hypercube/masks.h"
#include "obs/sink.h"
#include "sort/blockops.h"
#include "sort/fleet.h"
#include "sort/predicates.h"

namespace aoft::sort {

namespace {

// One node's stage-boundary upload, as drained by the host collector.
struct CkptUpload {
  cube::NodeId node = 0;
  int stage = -1;
  std::vector<Key> slice;  // window representative (lowest label) only
  Key digest = 0;          // every other window member
  bool is_slice = false;
};

// Order-sensitive FNV-1a fold over a key slice; the digest the non-
// representative window members upload in place of the full slice.
Key slice_digest(std::span<const Key> s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Key k : s) {
    h ^= static_cast<std::uint64_t>(k);
    h *= 1099511628211ULL;
  }
  return static_cast<Key>(h);
}

double local_sort_cost(const sim::CostModel& cm, std::size_t m) {
  return m > 1 ? cm.cmp * static_cast<double>(m) * std::log2(static_cast<double>(m))
               : 0.0;
}

// Classify a predicate violation string into the error taxonomy.
sim::ErrorSource source_of(const Violation& v) {
  if (v.what.rfind("phi_P", 0) == 0) return sim::ErrorSource::kPhiP;
  if (v.what.rfind("phi_F", 0) == 0) return sim::ErrorSource::kPhiF;
  if (v.what.rfind("phi_C", 0) == 0) return sim::ErrorSource::kPhiC;
  return sim::ErrorSource::kApp;
}

// Per-node protocol state bundled so the helpers below stay readable.  All
// key storage is drawn from the machine's pool: across campaign scenarios on
// a reset machine, a node's blocks and collections reuse the same capacity.
struct NodeState {
  explicit NodeState(sim::KeyPool& pool) : a(pool), lbs(pool), llbs(pool) {}

  sim::Ctx* ctx = nullptr;
  const fleet::NodeJob* job = nullptr;
  std::size_t m = 1;
  const fault::NodeFault* fault = nullptr;
  bool silent = false;  // complicit checker: swallows every violation

  // Raise a fail-stop error unless this node is a silent (faulty) checker.
  // Returns true when the caller must abort (honest behaviour); a silent
  // checker carries on as if the check had passed.
  bool flag(sim::ErrorReport r) {
    if (silent) return false;
    ctx->error(std::move(r));
    return true;
  }

  sim::KeyBuf a;     // my block, stored in `cur_asc` direction
  bool cur_asc = true;

  sim::KeyBuf lbs;   // full-cube flattened collection for this stage
  sim::KeyBuf llbs;  // validated collection from the previous stage
  util::BitVec lmask;     // labels collected in `lbs`

  // The window region of `lbs` as a read-only view.
  std::span<const Key> window_slice(const cube::Subcube& w) const {
    return std::span<const Key>(lbs).subspan(
        static_cast<std::size_t>(w.start) * m,
        static_cast<std::size_t>(w.size()) * m);
  }

  // Φ_C application to one received message.  Returns false after signalling
  // a fail-stop error.
  bool merge_received(const sim::Message& msg, const util::BitVec& sender_cover,
                      const cube::Subcube& window, int i, int j) {
    const auto& cm = job->cfg.cost;
    if (msg.lbs.size() != static_cast<std::size_t>(window.size()) * m)
      return !flag({0, i, j, sim::ErrorSource::kPhiC, "malformed LBS slice"});
    // Charge the mask computation (Lemma 7) and the merge scan (Lemma 9).
    ctx->charge(cm.copy * static_cast<double>(cube::vect_mask_count(i, j)));
    MergeStats stats;
    obs::ScopedPredContext at(ctx->id(), i, j, ctx->clock());
    auto violation = phi_c_merge(lbs, lmask, msg.lbs, sender_cover, window, m, &stats);
    ctx->charge(cm.merge_entry * static_cast<double>(stats.checked + stats.absorbed));
    if (violation && job->cfg.check_consistency)
      return !flag({0, i, j, sim::ErrorSource::kPhiC, violation->what});
    return true;
  }

  // The passive partner's executable assertion on the returned pair (a, b):
  // the merge must be direction-sorted and contain the block it contributed.
  bool check_pair(std::span<const Key> merged, std::span<const Key> mine,
                  bool asc, int i, int j) {
    const auto& cm = job->cfg.cost;
    ctx->charge(cm.cmp * static_cast<double>(merged.size() + mine.size()));
    if (!job->cfg.check_exchange) return true;
    const bool ok = merged.size() == 2 * m &&
                    blockops::is_sorted_dir(merged, asc) &&
                    blockops::contains_submultiset(merged, mine, asc);
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kPairCheck, ctx->id(), i, j, ctx->clock(),
                  ok ? 1 : 0);
    if (auto* me = obs::metrics())
      me->inc(ok ? obs::Counter::kPairPass : obs::Counter::kPairFail);
    if (!ok)
      return !flag({0, i, j, sim::ErrorSource::kPhiF,
                    "exchange pair inconsistent with contributed block"});
    return true;
  }

  // bit_compare at a stage boundary (paper Fig. 3 / Lemma 4), honouring the
  // ablation toggles.  Returns false after signalling.
  bool verify_stage(const cube::Subcube& outer, const cube::Subcube& inner,
                    bool inner_ascending, bool final_stage, int i) {
    const auto& cm = job->cfg.cost;
    const auto window_span = [&](const sim::KeyBuf& full,
                                 const cube::Subcube& sc) {
      return std::span<const Key>(full).subspan(
          static_cast<std::size_t>(sc.start) * m,
          static_cast<std::size_t>(sc.size()) * m);
    };
    obs::ScopedPredContext at(ctx->id(), i, -1, ctx->clock());
    if (job->cfg.check_progress) {
      ctx->charge(cm.cmp * static_cast<double>(outer.size() * m));
      if (auto v = phi_p(window_span(lbs, outer), final_stage)) {
        if (flag({0, i, -1, source_of(*v), v->what})) return false;
      }
    }
    if (job->cfg.check_feasibility) {
      ctx->charge(2.0 * cm.cmp * static_cast<double>(inner.size() * m));
      if (auto v = phi_f(window_span(llbs, inner), window_span(lbs, inner),
                         inner_ascending)) {
        if (flag({0, i, -1, source_of(*v), v->what})) return false;
      }
    }
    return true;
  }
};

sim::SimTask sft_node(sim::Ctx& ctx, const fleet::NodeJob& job) {
  const cube::NodeId me = ctx.id();
  const int n = static_cast<int>(job.cfg.dim);
  const std::size_t m = job.cfg.block;
  const std::size_t num_nodes = ctx.topo().num_nodes();
  const auto& cm = job.cfg.cost;

  NodeState st(ctx.pool());
  st.ctx = &ctx;
  st.job = &job;
  st.m = m;
  st.fault = job.fault_for(me);
  st.silent = st.fault != nullptr && st.fault->silent_checker;

  st.a.assign(job.input.begin() + static_cast<std::ptrdiff_t>(me * m),
              job.input.begin() + static_cast<std::ptrdiff_t>((me + 1) * m));
  auto write_out = [&] {
    std::copy(st.a.begin(), st.a.end(), job.out_block(me).begin());
  };

  if (n == 0) {  // single node: a local sort, nothing to verify against peers
    blockops::sort_dir(st.a, true, ctx.pool());
    ctx.charge(local_sort_cost(cm, m));
    write_out();
    co_return;
  }

  const int start = job.cfg.start_stage;
  if (start == 0) {
    // Initial local sort.  The direction alternates on bit 0 so that, per
    // pair, the flattened initial blocks already form an ascending-then-
    // descending sequence: the stage-0 gossip then has the bitonic-halves
    // shape every later Φ_F relies on (the "SC_i sorted in direction bit i"
    // invariant holds from i = 0).  With m = 1 the direction is vacuous,
    // matching Fig. 3.
    st.cur_asc = cube::subcube_sorted_ascending(0, me);
    blockops::sort_dir(st.a, st.cur_asc, ctx.pool());
    ctx.charge(local_sort_cost(cm, m));
  } else {
    // Resuming from a host-certified checkpoint: the block arrives already
    // sorted in the direction stage start-1's merge left SC_start in, and no
    // initial local sort is re-charged — that is the salvaged work.
    st.cur_asc = cube::subcube_sorted_ascending(start, me);
  }

  st.lbs.assign(num_nodes * m, Key{0});
  st.llbs.assign(num_nodes * m, Key{0});
  if (start > 0) {
    // C_{start-1}, restricted to the node's own SC_start window — exactly the
    // entries the uninterrupted run carried over its stage-(start-1) boundary
    // (Φ_F reads nothing outside it), so downstream state stays bit-identical.
    const auto prev = cube::home_subcube(start, me);
    std::copy(
        job.llbs.begin() + static_cast<std::ptrdiff_t>(prev.start * m),
        job.llbs.begin() + static_cast<std::ptrdiff_t>((prev.end + 1) * m),
        st.llbs.begin() + static_cast<std::ptrdiff_t>(prev.start * m));
  }
  st.lmask = util::BitVec(num_nodes);
  auto reset_lbs = [&] {
    std::copy(st.a.begin(), st.a.end(),
              st.lbs.begin() + static_cast<std::ptrdiff_t>(me * m));
    st.lmask.clear();
    st.lmask.set(me);
  };
  reset_lbs();

  const auto& topo = ctx.topo();

  for (int i = start; i < n; ++i) {
    const double stage_t0 = ctx.clock();
    const cube::Subcube window = cube::home_subcube(i + 1, me);
    bool asc = cube::stage_ascending(me, i);
    if (st.fault && st.fault->invert_direction_from &&
        fault::reached(*st.fault->invert_direction_from, i, i))
      asc = !asc;
    if (st.fault && st.fault->substitute_at && st.fault->substitute_at->stage == i) {
      // Consistent liar: fabricate an element everywhere, including own gossip.
      st.a[0] = st.fault->substitute_value;
      blockops::sort_dir(st.a, st.cur_asc, ctx.pool());
      reset_lbs();
    }
    if (asc != st.cur_asc) {
      blockops::reverse_block(st.a);
      ctx.charge(cm.copy * static_cast<double>(m));
      st.cur_asc = asc;
    }

    for (int j = i; j >= 0; --j) {
      if (st.fault && st.fault->halt_at && fault::reached(*st.fault->halt_at, i, j)) {
        fleet::halt_process(ctx, *st.fault, job);
        write_out();
        co_return;  // fail-silent; peers' watchdogs flag the absence
      }
      const cube::NodeId partner = me ^ (cube::NodeId{1} << j);
      const bool active = !cube::node_bit(me, j);
      if (active) {
        auto r = co_await ctx.recv(partner);
        if (!r.ok) {  // cannot proceed without the operand, silent or not
          st.flag({0, i, j, sim::ErrorSource::kTimeout, "no message from partner"});
          write_out();
          co_return;
        }
        ctx.account_recv(r.msg);
        // The passive partner sent its pre-exchange collection.
        if (!st.merge_received(r.msg, cube::pre_mask(topo, i, j, partner), window,
                               i, j)) {
          write_out();
          co_return;
        }
        // Compare-exchange (merge-split for blocks).  The received buffer is
        // adopted in place (pooled — it returns to the machine's pool when
        // this iteration's state dies).
        sim::KeyBuf theirs = std::move(r.msg.data);
        if (theirs.size() != m || !blockops::is_sorted_dir(theirs, st.cur_asc)) {
          ctx.charge(cm.cmp * static_cast<double>(theirs.size()));
          if (st.flag({0, i, j, sim::ErrorSource::kPhiF,
                       "received operand block malformed"})) {
            write_out();
            co_return;
          }
          theirs.resize(m, 0);
          blockops::sort_dir(theirs, st.cur_asc, ctx.pool());
        }
        ctx.charge(cm.cmp * static_cast<double>(m));
        if (job.cfg.check_exchange && j == i) {
          // At the first iteration of a stage the partner's gossip must carry
          // exactly the operand it sent: a node cannot tell the compare-
          // exchange one value and the collective check another.  The gossip
          // keeps the previous stage's orientation (direction bit i of the
          // owner) while the operand was reoriented to the pair direction —
          // compared in place via a reversed iteration, no materialized copy.
          const std::size_t off = static_cast<std::size_t>(partner - window.start) * m;
          const auto gossip = std::span<const Key>(r.msg.lbs).subspan(off, m);
          ctx.charge(cm.cmp * static_cast<double>(m));
          const bool same =
              cube::subcube_sorted_ascending(i, partner) != st.cur_asc
                  ? std::equal(theirs.begin(), theirs.end(),
                               std::make_reverse_iterator(gossip.end()))
                  : std::equal(theirs.begin(), theirs.end(), gossip.begin());
          if (!same && st.flag({0, i, j, sim::ErrorSource::kPhiC,
                                "operand disagrees with piggybacked gossip"})) {
            write_out();
            co_return;
          }
        }
        // Reply carries the whole pair (a, b) plus the *merged* collection.
        // The merge writes straight into the reply's pooled buffer — the
        // per-iteration `merged` vector of the unpooled code is gone.  Each
        // gossip send names the mask its receiver's Φ_C reads the window
        // through (vect_mask here, pre_mask from the passive side), computed
        // from the topology, so a remote link may leave every other cell out
        // (sim/remote.h) whatever this node's lmask holds.
        sim::Message reply(ctx.pool());
        reply.kind = sim::MsgKind::kDataLbs;
        reply.stage = i;
        reply.iter = j;
        reply.data.resize(2 * m);
        blockops::merge_dir_into(st.a, theirs, st.cur_asc, reply.data);
        ctx.charge(cm.cmp * static_cast<double>(2 * m));
        st.a.assign(reply.data.begin(),
                    reply.data.begin() + static_cast<std::ptrdiff_t>(m));
        ctx.send(partner, std::move(reply), st.window_slice(window),
                 cube::vect_cover(i, j, me));
      } else {
        sim::Message msg(ctx.pool());
        msg.kind = sim::MsgKind::kDataLbs;
        msg.stage = i;
        msg.iter = j;
        msg.data = st.a;
        ctx.send(partner, std::move(msg), st.window_slice(window),
                 cube::pre_cover(i, j, me));
        auto r = co_await ctx.recv(partner);
        if (!r.ok) {  // cannot proceed without the operand, silent or not
          st.flag({0, i, j, sim::ErrorSource::kTimeout, "no message from partner"});
          write_out();
          co_return;
        }
        ctx.account_recv(r.msg);
        // The active partner merged before replying, so its collection is the
        // union — every entry we already hold is cross-checked here.
        if (!st.merge_received(r.msg, cube::vect_mask(topo, i, j, partner), window,
                               i, j)) {
          write_out();
          co_return;
        }
        if (!st.check_pair(r.msg.data, st.a, st.cur_asc, i, j)) {
          write_out();
          co_return;
        }
        if (r.msg.data.size() >= 2 * m)
          st.a.assign(r.msg.data.begin() + static_cast<std::ptrdiff_t>(m),
                      r.msg.data.begin() + static_cast<std::ptrdiff_t>(2 * m));
      }
      if (auto* tr = obs::tracer())
        tr->instant(obs::Ev::kIter, me, i, j, ctx.clock());
    }

    // Stage boundary: bit_compare (skipped at stage 0 where no LLBS exists),
    // LLBS update, LBS reset (paper Fig. 3).
    if (i != 0) {
      const cube::Subcube inner = cube::home_subcube(i, me);
      if (!st.verify_stage(window, inner, cube::subcube_sorted_ascending(i, me),
                           /*final_stage=*/false, i)) {
        write_out();
        co_return;
      }
    }
    if (job.observer != nullptr) {
      StageSnapshot snap;
      snap.node = me;
      snap.stage = i;
      snap.window = window;
      const auto lbs_window = st.window_slice(window);
      snap.lbs_window.assign(lbs_window.begin(), lbs_window.end());
      snap.llbs_window.assign(
          st.llbs.begin() + static_cast<std::ptrdiff_t>(window.start * m),
          st.llbs.begin() + static_cast<std::ptrdiff_t>((window.end + 1) * m));
      (*job.observer)(snap);
    }
    if (job.cfg.checkpoint) {
      // Upload the just-validated window to the host: the window's lowest
      // label ships the slice, every other member only a digest, so one stage
      // boundary costs the host N*m words plus N-per-stage digest messages.
      sim::Message ck(ctx.pool());
      ck.kind = sim::MsgKind::kCheckpoint;
      ck.stage = i;
      const bool is_rep = me == window.start;
      const auto slice = st.window_slice(window);
      if (!is_rep) ck.data.push_back(slice_digest(slice));
      // Shipping the slice and a streaming hash fold both touch each word
      // once: copy-rate, not cmp.
      ctx.charge(cm.copy * static_cast<double>(window.size() * m));
      const auto upload = is_rep ? slice : std::span<const Key>{};
      const auto ck_words = static_cast<std::int64_t>(ck.words() + upload.size());
      if (auto* tr = obs::tracer())
        tr->instant(obs::Ev::kCkptUpload, me, i, -1, ctx.clock(),
                    is_rep ? 1 : 0, ck_words);
      if (auto* mreg = obs::metrics()) mreg->inc(obs::Counter::kCkptUploads);
      ctx.send_host(std::move(ck), upload);
    }
    std::copy(st.lbs.begin() + static_cast<std::ptrdiff_t>(window.start * m),
              st.lbs.begin() + static_cast<std::ptrdiff_t>((window.end + 1) * m),
              st.llbs.begin() + static_cast<std::ptrdiff_t>(window.start * m));
    ctx.charge(cm.copy * static_cast<double>(window.size() * m));
    reset_lbs();
    if (auto* tr = obs::tracer())
      tr->span(obs::Ev::kStage, me, i, stage_t0, ctx.clock());
  }

  // Final verification: pure exchange of the finished sort over the whole
  // cube, then bit_compare against the last validated bitonic sequence.
  const cube::Subcube cube_window = cube::home_subcube(n, me);
  const int fi = n - 1;  // mask algebra of the last stage spans the whole cube
  const double final_t0 = ctx.clock();
  for (int j = fi; j >= 0; --j) {
    if (st.fault && st.fault->halt_at && fault::reached(*st.fault->halt_at, n, j)) {
      fleet::halt_process(ctx, *st.fault, job);
      write_out();
      co_return;
    }
    const cube::NodeId partner = me ^ (cube::NodeId{1} << j);
    const bool active = !cube::node_bit(me, j);
    if (active) {
      auto r = co_await ctx.recv(partner);
      if (!r.ok) {
        st.flag({0, n, j, sim::ErrorSource::kTimeout, "no message from partner"});
        write_out();
        co_return;
      }
      ctx.account_recv(r.msg);
      if (!st.merge_received(r.msg, cube::pre_mask(topo, fi, j, partner),
                             cube_window, n, j)) {
        write_out();
        co_return;
      }
      sim::Message reply(ctx.pool());
      reply.kind = sim::MsgKind::kLbsOnly;
      reply.stage = n;
      reply.iter = j;
      ctx.send(partner, std::move(reply), st.window_slice(cube_window),
               cube::vect_cover(fi, j, me));
    } else {
      sim::Message msg(ctx.pool());
      msg.kind = sim::MsgKind::kLbsOnly;
      msg.stage = n;
      msg.iter = j;
      ctx.send(partner, std::move(msg), st.window_slice(cube_window),
               cube::pre_cover(fi, j, me));
      auto r = co_await ctx.recv(partner);
      if (!r.ok) {
        st.flag({0, n, j, sim::ErrorSource::kTimeout, "no message from partner"});
        write_out();
        co_return;
      }
      ctx.account_recv(r.msg);
      if (!st.merge_received(r.msg, cube::vect_mask(topo, fi, j, partner),
                             cube_window, n, j)) {
        write_out();
        co_return;
      }
    }
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kIter, me, n, j, ctx.clock());
  }
  if (!st.verify_stage(cube_window, cube_window, /*inner_ascending=*/true,
                       /*final_stage=*/true, n)) {
    write_out();
    co_return;
  }
  if (auto* tr = obs::tracer())
    tr->span(obs::Ev::kStage, me, n, final_t0, ctx.clock());
  if (job.observer != nullptr) {
    StageSnapshot snap;
    snap.node = me;
    snap.stage = n;
    snap.window = cube_window;
    const auto lbs_window = st.window_slice(cube_window);
    snap.lbs_window.assign(lbs_window.begin(), lbs_window.end());
    snap.llbs_window.assign(st.llbs.begin(), st.llbs.end());
    (*job.observer)(snap);
  }
  write_out();
  co_return;
}

// Host-side checkpoint collector.  Drains the inbox until global quiescence
// (the watchdog fails the receive once the sort is over — Environmental
// Assumption 4 works for the host too); error reports pass through untouched.
sim::SimTask ckpt_collector(sim::HostCtx& host,
                            std::vector<CkptUpload>& uploads) {
  for (;;) {
    auto r = co_await host.recv();
    if (!r.ok) co_return;
    if (r.msg.kind != sim::MsgKind::kCheckpoint) continue;
    host.account_bulk_recv(r.msg);
    CkptUpload up;
    up.node = r.msg.from;
    up.stage = r.msg.stage;
    if (!r.msg.lbs.empty()) {
      // Copy out: uploads outlive the run (and the machine's pool), so the
      // host-side record is a plain vector while the pooled buffer returns.
      up.slice.assign(r.msg.lbs.begin(), r.msg.lbs.end());
      up.is_slice = true;
    } else if (!r.msg.data.empty()) {
      up.digest = r.msg.data.front();
    }
    uploads.push_back(std::move(up));
  }
}

// Certify the drained uploads into per-stage checkpoints.  A stage-i
// checkpoint is certified when every SC_{i+1} window has its representative
// slice confirmed by every member's digest, the assembled full-cube state is
// a permutation of the run's start state, and every dim-i subcube is sorted
// in its direction-bit orientation — the exact invariants a resume relies on.
// Colluding forgeries that survive all three are still permutations of the
// input, so a resumed sort of one still yields the correct sorted output.
std::vector<StageCheckpoint> certify_checkpoints(
    const transport::JobConfig& cfg, std::span<const Key> input,
    std::span<const CkptUpload> uploads) {
  const int n = static_cast<int>(cfg.dim);
  const std::size_t m = cfg.block;
  const cube::NodeId num_nodes = cube::NodeId{1} << n;
  std::vector<StageCheckpoint> out;
  for (int i = cfg.start_stage; i < n; ++i) {
    StageCheckpoint ck;
    ck.stage = i;
    ck.state.assign(num_nodes * m, 0);
    const cube::NodeId wsize = cube::NodeId{1} << (i + 1);
    ck.windows_total = static_cast<int>(num_nodes / wsize);
    for (cube::NodeId ws = 0; ws < num_nodes; ws += wsize) {
      const CkptUpload* rep = nullptr;
      int digests_ok = 0;
      for (const auto& up : uploads) {
        if (up.stage != i || up.node < ws || up.node >= ws + wsize) continue;
        if (up.node == ws && up.is_slice) rep = &up;
      }
      if (rep == nullptr || rep->slice.size() != wsize * m) continue;
      const Key expect = slice_digest(rep->slice);
      for (const auto& up : uploads)
        if (up.stage == i && up.node > ws && up.node < ws + wsize &&
            !up.is_slice && up.digest == expect)
          ++digests_ok;
      if (digests_ok != static_cast<int>(wsize) - 1) continue;
      std::copy(rep->slice.begin(), rep->slice.end(),
                ck.state.begin() + static_cast<std::ptrdiff_t>(ws * m));
      ++ck.windows_agreed;
    }
    if (ck.windows_agreed == ck.windows_total &&
        is_permutation_of(ck.state, input)) {
      ck.certified = true;
      const cube::NodeId ssize = cube::NodeId{1} << i;
      for (cube::NodeId s = 0; s < num_nodes && ck.certified; s += ssize) {
        const std::span<const Key> sub(ck.state.data() + s * m, ssize * m);
        if (!blockops::is_sorted_dir(sub, cube::subcube_sorted_ascending(i, s)))
          ck.certified = false;
      }
    }
    out.push_back(std::move(ck));
  }
  return out;
}

// Options -> JobConfig: everything a node program reads about the job, on
// every fabric.
transport::JobConfig job_config(int dim, const SftOptions& o, int start_stage) {
  transport::JobConfig cfg;
  cfg.dim = static_cast<std::uint32_t>(dim);
  cfg.block = o.block;
  cfg.start_stage = start_stage;
  cfg.algo = 0;
  cfg.checkpoint = o.checkpoint;
  cfg.record_events = o.record_link_events;
  cfg.with_resume = start_stage > 0;
  cfg.check_progress = o.check_progress;
  cfg.check_feasibility = o.check_feasibility;
  cfg.check_consistency = o.check_consistency;
  cfg.check_exchange = o.check_exchange;
  cfg.cost = o.cost;
  return cfg;
}

// `input` is the start state (the input, or C_start on a resume) and `llbs`
// C_{start-1}; both are views into caller storage that outlives the run.
SortRun run_sft_impl(const transport::JobConfig& cfg,
                     std::span<const Key> input, std::span<const Key> llbs,
                     const SftOptions& o) {
  if (auto* tr = obs::tracer())
    tr->instant(obs::Ev::kRunBegin, obs::kGlobal, cfg.start_stage, -1, 0.0,
                cfg.dim, static_cast<std::int64_t>(cfg.block));
  std::vector<CkptUpload> uploads;
  sim::HostMain host;
  if (o.checkpoint)
    host = [&uploads](sim::HostCtx& h) { return ckpt_collector(h, uploads); };
  SortRun run = fleet::run({.backend = o.backend,
                            .cfg = cfg,
                            .input = input,
                            .llbs = llbs,
                            .faults = o.node_faults,
                            .interceptor = o.interceptor,
                            .machine = o.machine,
                            .observer = o.observer ? &o.observer : nullptr,
                            .shm = &o.shm,
                            .tcp = &o.tcp},
                           sft_node, host);
  if (o.checkpoint) run.checkpoints = certify_checkpoints(cfg, input, uploads);
  if (auto* tr = obs::tracer()) {
    for (const auto& ck : run.checkpoints)
      tr->instant(obs::Ev::kCkptCertify, obs::kHostNode, ck.stage, -1,
                  run.summary.elapsed, ck.certified ? 1 : 0, ck.windows_agreed);
    tr->instant(obs::Ev::kRunEnd, obs::kGlobal, -1, -1, run.summary.elapsed,
                static_cast<std::int64_t>(run.errors.size()),
                run.summary.watchdog_rounds);
  }
  return run;
}

}  // namespace

SortRun run_sft(int dim, std::span<const Key> input, const SftOptions& opts) {
  require_cube_keys("run_sft input", dim, opts.block, input.size());
  return run_sft_impl(job_config(dim, opts, 0), input, {}, opts);
}

// Declared in sort/driver.h next to ResumeState; lives here with the node
// program it re-enters.
SortRun resume_sft(int dim, const ResumeState& rs, const SftOptions& opts) {
  if (rs.stage < 1 || rs.stage >= dim)
    throw std::invalid_argument("resume_sft: stage outside [1, dim)");
  require_cube_keys("resume_sft blocks", dim, opts.block, rs.blocks.size());
  require_cube_keys("resume_sft llbs", dim, opts.block, rs.llbs.size());
  return run_sft_impl(job_config(dim, opts, rs.stage), rs.blocks, rs.llbs,
                      opts);
}

namespace detail {

int run_sft_shm_node(transport::ShmSegment& seg, cube::NodeId p) {
  return fleet::run_node(seg, p, sft_node);
}

int run_sft_tcp_node(transport::TcpNodeEndpoint& ep, cube::NodeId p) {
  return fleet::run_node(ep, p, sft_node);
}

}  // namespace detail

}  // namespace aoft::sort

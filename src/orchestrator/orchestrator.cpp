#include "orchestrator/orchestrator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "admission/admission.h"
#include "core/bmcgap.h"
#include "core/heuristic_matching.h"
#include "core/validator.h"
#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/faultpoint.h"

namespace mecra::orchestrator {

std::size_t Service::running_at(std::uint32_t chain_pos) const {
  std::size_t count = 0;
  for (const Instance& inst : instances) {
    if (inst.chain_pos == chain_pos && inst.state == InstanceState::kRunning) {
      ++count;
    }
  }
  return count;
}

double Service::current_reliability(const mec::VnfCatalog& catalog) const {
  double u = 1.0;
  for (std::uint32_t p = 0; p < request.length(); ++p) {
    const double r = catalog.function(request.chain[p]).reliability;
    u *= mec::function_reliability(
        r, static_cast<std::uint32_t>(running_at(p)));
  }
  return u;
}

Orchestrator::Orchestrator(mec::MecNetwork network, mec::VnfCatalog catalog,
                           OrchestratorOptions options)
    : network_(std::move(network)),
      catalog_(std::move(catalog)),
      options_(std::move(options)) {
  MECRA_CHECK(options_.l_hops >= 1);
}

Orchestrator::DownMask::DownMask(Orchestrator& orch) : orch_(orch) {
  held_.reserve(orch_.down_cloudlets_.size());
  for (graph::NodeId v : orch_.down_cloudlets_) {
    const double residual = orch_.network_.residual(v);
    if (residual > 0.0) {
      orch_.network_.consume(v, residual);
      held_.emplace_back(v, residual);
    }
  }
}

// NOLINTNEXTLINE(bugprone-exception-escape): release() MECRA_CHECKs its
// invariants; swallowing a failure here would leave masked capacity
// permanently consumed — corrupt residuals. Terminating loudly is correct.
Orchestrator::DownMask::~DownMask() {
  for (const auto& [v, amount] : held_) orch_.network_.release(v, amount);
}

const Service& Orchestrator::service(ServiceId id) const {
  auto it = services_.find(id);
  MECRA_CHECK_MSG(it != services_.end(), "unknown service id");
  return it->second;
}

Service& Orchestrator::service_mut(ServiceId id) {
  auto it = services_.find(id);
  MECRA_CHECK_MSG(it != services_.end(), "unknown service id");
  return it->second;
}

std::vector<ServiceId> Orchestrator::services() const {
  std::vector<ServiceId> ids;
  ids.reserve(services_.size());
  for (const auto& [id, svc] : services_) ids.push_back(id);
  return ids;
}

std::optional<ServiceId> Orchestrator::admit(const mec::SfcRequest& request,
                                             util::Rng& rng) {
  // Down cloudlets present zero residual for the whole admission +
  // augmentation sequence, so neither primaries nor standbys land there.
  const DownMask mask(*this);
  obs::TraceSpan span("orchestrator.admit");
  if (obs::enabled()) {
    static obs::Counter& attempts =
        obs::MetricsRegistry::global().counter("admission.attempts");
    attempts.add(1);
  }
  auto primaries =
      admission::random_admission(network_, catalog_, request, rng);
  if (!primaries.has_value()) {
    if (obs::enabled()) {
      static obs::Counter& rejected =
          obs::MetricsRegistry::global().counter("admission.rejected");
      rejected.add(1);
    }
    return std::nullopt;
  }
  if (obs::enabled()) {
    static obs::Counter& accepted =
        obs::MetricsRegistry::global().counter("admission.accepted");
    accepted.add(1);
  }

  Service svc = augment_placed(request, *primaries, nullptr, nullptr);
  svc.id = next_service_++;
  for (Instance& inst : svc.instances) inst.id = next_instance_++;
  const ServiceId id = svc.id;
  services_.emplace(id, std::move(svc));
  return id;
}

Service Orchestrator::augment_placed(
    const mec::SfcRequest& request,
    const admission::PrimaryPlacement& primaries, const mec::ShardMap* map,
    StagedAdmission* audit) {
  Service svc;
  svc.request = request;
  for (std::uint32_t p = 0; p < request.length(); ++p) {
    svc.instances.push_back(Instance{kPendingInstanceId, p,
                                     primaries.cloudlet_of[p],
                                     InstanceRole::kActive,
                                     InstanceState::kRunning});
  }
  const core::BmcgapOptions model_options{.l_hops = options_.l_hops};
  core::BmcgapInstance instance =
      map != nullptr ? core::build_bmcgap(network_, catalog_, request,
                                          primaries, model_options, *map)
                     : core::build_bmcgap(network_, catalog_, request,
                                          primaries, model_options);
  auto algorithm =
      options_.algorithm ? options_.algorithm : core::augment_heuristic;
  auto result = algorithm(instance, options_.augment);
  MECRA_CHECK_MSG(core::validate(instance, result).feasible,
                  "orchestrator requires capacity-feasible augmentation");
  core::apply_placements(network_, instance, result);
  for (const auto& placement : result.placements) {
    svc.instances.push_back(Instance{kPendingInstanceId, placement.chain_pos,
                                     placement.cloudlet,
                                     InstanceRole::kStandby,
                                     InstanceState::kRunning});
  }
  svc.state = ServiceState::kHealthy;
  if (audit != nullptr && options_.batch.record_audit) {
    audit->instance = std::move(instance);
    audit->result = std::move(result);
  }
  return svc;
}

const mec::ShardMap& Orchestrator::shard_map() {
  if (shard_map_ == nullptr) {
    shard_map_ = std::make_unique<mec::ShardMap>(mec::ShardMap::build(
        network_, {.l_hops = options_.l_hops,
                   .num_shards = options_.batch.num_shards}));
    border_debit_ =
        std::make_unique<std::atomic<double>[]>(network_.num_nodes());
    for (std::size_t v = 0; v < network_.num_nodes(); ++v) {
      border_debit_[v].store(0.0, std::memory_order_relaxed);
    }
    if (obs::enabled()) {
      auto& reg = obs::MetricsRegistry::global();
      reg.gauge("shard.count")
          .set(static_cast<double>(shard_map_->num_shards()));
      reg.gauge("shard.border_cloudlets")
          .set(static_cast<double>(shard_map_->border_count()));
      reg.gauge("shard.interior_cloudlets")
          .set(static_cast<double>(network_.cloudlets().size() -
                                   shard_map_->border_count()));
    }
  }
  return *shard_map_;
}

util::ThreadPool* Orchestrator::batch_pool() {
  if (options_.batch.threads <= 1) return nullptr;
  if (pool_ == nullptr) {
    // Clamp the worker count to the machine: results are per-index
    // deterministic (bit-identical at every thread count, asserted in
    // tests), so extra workers beyond the cores can only add wakeup and
    // mutex contention on the per-window dispatch — the measured cause of
    // the 4/8-thread throughput sag in BENCH_stream.json.
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    pool_ = std::make_unique<util::ThreadPool>(
        std::min(options_.batch.threads, hw));
  }
  return pool_.get();
}

void Orchestrator::note_border_debit(graph::NodeId v, double amount) {
  if (!shard_map_->is_border(v)) return;
  auto& slot = border_debit_[v];
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + amount,
                                     std::memory_order_relaxed)) {
  }
}

void Orchestrator::admit_in_shard(const mec::SfcRequest& request,
                                  std::size_t shard,
                                  std::uint64_t batch_salt, std::size_t index,
                                  admission::PrimaryPool& pool,
                                  StagedAdmission& staged) {
  staged.shard = shard;
  if (MECRA_FAULT_POINT("orchestrator.shard_worker")) {
    // Injected before any capacity is touched; admit_batch drains the
    // remaining requests of this shard to the serial fallback pass.
    if (obs::enabled()) {
      static obs::Counter& injected =
          obs::MetricsRegistry::global().counter("fault.injected");
      injected.add(1);
    }
    staged.faulted = true;
    return;
  }
  auto primaries =
      pool.place(network_, request, util::derive_seed(batch_salt, index));
  if (!primaries.has_value()) return;  // fallback pass retries network-wide

  try {
    Service svc = augment_placed(request, *primaries, shard_map_.get(),
                                 &staged);
    for (const Instance& inst : svc.instances) {
      note_border_debit(inst.cloudlet,
                        catalog_.function(request.chain[inst.chain_pos])
                            .cpu_demand);
    }
    staged.svc = std::move(svc);
    staged.admitted = true;
  } catch (...) {
    // Shard-worker exception safety: return the primaries' capacity (the
    // standbys are only consumed by apply_placements, which runs after
    // validate and cannot come up short), flag the fault, and let the
    // serial fallback pass retry the request on the driver thread. Border
    // debits are only declared on success, so the consume/release pair
    // nets to zero against the conservation audit. The release may leave
    // a residual an ulp above its old value, so the pool re-reads before
    // it trusts its bound again.
    for (std::uint32_t p = 0; p < request.length(); ++p) {
      network_.release(primaries->cloudlet_of[p],
                       catalog_.function(request.chain[p]).cpu_demand);
    }
    pool.invalidate();
    staged = StagedAdmission{};
    staged.shard = shard;
    staged.faulted = true;
  }
}

std::vector<std::optional<ServiceId>> Orchestrator::admit_batch(
    const std::vector<mec::SfcRequest>& requests, util::Rng& rng) {
  obs::TraceSpan span("orchestrator.admit_batch");
  std::vector<std::optional<ServiceId>> out(requests.size());
  batch_audit_ = BatchAudit{};
  if (requests.empty()) return out;
  const mec::ShardMap& map = shard_map();

  // Down cloudlets present zero residual for the whole batch, exactly as
  // in the serial admit() path.
  const DownMask mask(*this);

  // One draw salts the batch; request i derives its own stream from
  // (salt, i), so outcomes cannot depend on which worker runs which shard.
  const std::uint64_t batch_salt = rng();

  std::vector<std::vector<std::size_t>> groups(map.num_shards());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    groups[map.home_shard(requests[i].source)].push_back(i);
  }
  std::vector<std::size_t> active_shards;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (!groups[s].empty()) active_shards.push_back(s);
  }

  // Snapshot border residuals and zero the debit slots; the post-join
  // audit proves no worker wrote capacity outside its shard.
  std::vector<std::pair<graph::NodeId, double>> border_before;
  for (graph::NodeId v : network_.cloudlets()) {
    if (map.is_border(v)) {
      border_debit_[v].store(0.0, std::memory_order_relaxed);
      border_before.emplace_back(v, network_.residual(v));
    }
  }

  std::vector<StagedAdmission> staged(requests.size());
  std::atomic<std::size_t> degraded{0};
  auto run_shard = [&](std::size_t k) {
    const std::size_t s = active_shards[k];
    // Only this worker writes the shard's interior cloudlets during the
    // parallel phase, so their residuals only fall under the pool.
    admission::PrimaryPool pool(catalog_, map.interior_cloudlets(s));
    obs::TraceSpan shard_span("shard.admit");
    shard_span.attr("shard", static_cast<double>(s));
    shard_span.attr("requests", static_cast<double>(groups[s].size()));
    for (std::size_t n = 0; n < groups[s].size(); ++n) {
      const std::size_t i = groups[s][n];
      try {
        admit_in_shard(requests[i], s, batch_salt, i, pool, staged[i]);
      } catch (...) {
        // admit_in_shard rolls back internally; this is a belt for faults
        // injected outside its try scope. Never let an exception escape a
        // worker unhandled.
        staged[i] = StagedAdmission{};
        staged[i].shard = s;
        staged[i].faulted = true;
      }
      if (staged[i].faulted) {
        // Degrade: drain the rest of this shard's queue to the serial
        // fallback pass instead of aborting the whole batch.
        for (std::size_t m = n; m < groups[s].size(); ++m) {
          staged[groups[s][m]].shard = s;
          staged[groups[s][m]].faulted = true;
        }
        degraded.fetch_add(groups[s].size() - n, std::memory_order_relaxed);
        break;
      }
    }
  };
  util::ThreadPool* pool = batch_pool();
  if (pool != nullptr && active_shards.size() > 1) {
    pool->parallel_for(active_shards.size(), run_shard);
  } else {
    for (std::size_t k = 0; k < active_shards.size(); ++k) run_shard(k);
  }
  batch_audit_.degraded = degraded.load(std::memory_order_relaxed);
  if (batch_audit_.degraded > 0 && obs::enabled()) {
    static obs::Counter& degraded_counter =
        obs::MetricsRegistry::global().counter("admit.degraded");
    degraded_counter.add(batch_audit_.degraded);
  }

  // Border conservation audit: every border cloudlet's residual must have
  // moved by exactly the debits workers declared against it.
  for (const auto& [v, before] : border_before) {
    const double debit = border_debit_[v].load(std::memory_order_relaxed);
    MECRA_CHECK_MSG(
        std::abs(network_.residual(v) - (before - debit)) <=
            1e-6 * std::max(1.0, before),
        "border-cloudlet capacity changed outside the declared shard debits");
  }

  // Serial border/fallback pass: requests the shard-confined phase could
  // not place retry against the whole network, in request order, under the
  // fallback lock.
  std::size_t fallback_attempts = 0;
  {
    const util::LockGuard lock(batch_mutex_);
    const std::uint64_t fallback_salt =
        util::derive_seed(batch_salt, 0x0fa11bacULL);
    admission::PrimaryPool fallback_pool(catalog_, network_.cloudlets());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (staged[i].admitted) continue;
      ++fallback_attempts;
      auto primaries = fallback_pool.place(network_, requests[i],
                                           util::derive_seed(fallback_salt, i));
      if (!primaries.has_value()) continue;
      staged[i].svc = augment_placed(requests[i], *primaries, &map,
                                     &staged[i]);
      staged[i].via_fallback = true;
      staged[i].admitted = true;
    }
  }

  // Commit phase (driver thread): service and instance ids are assigned in
  // ascending request order, reproducing the serial sequence bit-for-bit.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!staged[i].admitted) {
      ++batch_audit_.rejected;
      continue;
    }
    if (staged[i].via_fallback) {
      ++batch_audit_.fallback_admitted;
    } else {
      ++batch_audit_.parallel_admitted;
    }
    Service svc = std::move(staged[i].svc);
    svc.id = next_service_++;
    for (Instance& inst : svc.instances) inst.id = next_instance_++;
    out[i] = svc.id;
    if (options_.batch.record_audit) {
      BatchAudit::Entry entry;
      entry.request_index = i;
      entry.shard = staged[i].shard;
      entry.via_fallback = staged[i].via_fallback;
      entry.instance = std::move(staged[i].instance);
      entry.result = std::move(staged[i].result);
      batch_audit_.entries.push_back(std::move(entry));
    }
    services_.emplace(svc.id, std::move(svc));
  }

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& b_requests = reg.counter("batch.requests");
    static obs::Counter& b_admitted = reg.counter("batch.admitted");
    static obs::Counter& b_rejected = reg.counter("batch.rejected");
    static obs::Counter& b_fallback = reg.counter("batch.fallback_requests");
    static obs::Counter& a_attempts = reg.counter("admission.attempts");
    static obs::Counter& a_accepted = reg.counter("admission.accepted");
    static obs::Counter& a_rejected = reg.counter("admission.rejected");
    static obs::Histogram& b_size = reg.histogram(
        "batch.size", obs::Histogram::exponential_bounds(1.0, 2.0, 12));
    const std::uint64_t admitted =
        batch_audit_.parallel_admitted + batch_audit_.fallback_admitted;
    b_requests.add(requests.size());
    b_admitted.add(admitted);
    b_rejected.add(batch_audit_.rejected);
    b_fallback.add(fallback_attempts);
    a_attempts.add(requests.size());
    a_accepted.add(admitted);
    a_rejected.add(batch_audit_.rejected);
    b_size.observe(static_cast<double>(requests.size()));
  }
  span.attr("requests", static_cast<double>(requests.size()));
  span.attr("admitted",
            static_cast<double>(batch_audit_.parallel_admitted +
                                batch_audit_.fallback_admitted));
  span.attr("fallback", static_cast<double>(fallback_attempts));
  span.attr("shards", static_cast<double>(active_shards.size()));
  return out;
}

std::optional<std::size_t> Orchestrator::service_home_shard(ServiceId id) {
  const mec::ShardMap& map = shard_map();
  const Service& svc = service(id);
  std::optional<std::size_t> shard;
  for (const Instance& inst : svc.instances) {
    if (!network_.is_cloudlet(inst.cloudlet)) return std::nullopt;
    const std::size_t s = map.shard_of(inst.cloudlet);
    if (!shard.has_value()) {
      shard = s;
    } else if (*shard != s) {
      return std::nullopt;  // straddles shards
    }
    // A running active on a border cloudlet could pull reaugment
    // candidates from a neighbouring shard; keep such services serial.
    if (inst.state == InstanceState::kRunning &&
        inst.role == InstanceRole::kActive && map.is_border(inst.cloudlet)) {
      return std::nullopt;
    }
  }
  return shard;
}

void Orchestrator::promote_for_position(Service& svc,
                                        std::uint32_t chain_pos,
                                        graph::NodeId failed_at) {
  // Does the position still have an active instance?
  for (const Instance& inst : svc.instances) {
    if (inst.chain_pos == chain_pos && inst.state == InstanceState::kRunning &&
        inst.role == InstanceRole::kActive) {
      return;
    }
  }
  // Promote the running standby closest (in hops) to the failed primary —
  // minimizing the state-transfer distance the paper's l bound caps. The
  // standbys are the only distances needed, so the oracle's early-stopping
  // walk replaces the full-network BFS (bit-identical distances).
  std::vector<Instance*> standbys;
  std::vector<graph::NodeId> standby_at;
  for (Instance& inst : svc.instances) {
    if (inst.chain_pos == chain_pos &&
        inst.state == InstanceState::kRunning &&
        inst.role == InstanceRole::kStandby) {
      standbys.push_back(&inst);
      standby_at.push_back(inst.cloudlet);
    }
  }
  const auto hops = network_.oracle().hops_to_targets(failed_at, standby_at);
  Instance* best = nullptr;
  std::uint32_t best_hops = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < standbys.size(); ++i) {
    Instance& inst = *standbys[i];
    const std::uint32_t h = hops[i];
    // Deterministic: strictly nearer wins; hop ties go to the lowest
    // instance id. An unreachable standby (disconnected topology) is still
    // promotable when nothing nearer exists.
    if (best == nullptr || h < best_hops ||
        (h == best_hops && inst.id < best->id)) {
      best = &inst;
      best_hops = h;
    }
  }
  if (best != nullptr) best->role = InstanceRole::kActive;
}

std::optional<InstanceId> Orchestrator::fail_instance(ServiceId service_id,
                                                      InstanceId inst_id) {
  Service& svc = service_mut(service_id);
  Instance* target = nullptr;
  for (Instance& inst : svc.instances) {
    if (inst.id == inst_id) target = &inst;
  }
  MECRA_CHECK_MSG(target != nullptr, "unknown instance id");
  MECRA_CHECK_MSG(target->state == InstanceState::kRunning,
                  "instance already failed");
  target->state = InstanceState::kFailed;
  const bool was_active = target->role == InstanceRole::kActive;
  const std::uint32_t pos = target->chain_pos;
  const graph::NodeId at = target->cloudlet;

  std::optional<InstanceId> promoted;
  if (was_active) {
    promote_for_position(svc, pos, at);
    for (const Instance& inst : svc.instances) {
      if (inst.chain_pos == pos && inst.state == InstanceState::kRunning &&
          inst.role == InstanceRole::kActive) {
        promoted = inst.id;
      }
    }
  }
  (void)refresh_state(service_id);
  return promoted;
}

void Orchestrator::fail_cloudlet(graph::NodeId v) {
  MECRA_CHECK(v < network_.num_nodes());
  MECRA_CHECK_MSG(!down_cloudlets_.contains(v), "cloudlet is already down");
  down_cloudlets_.insert(v);
  for (auto& [id, svc] : services_) {
    std::vector<std::pair<std::uint32_t, graph::NodeId>> lost_active;
    for (Instance& inst : svc.instances) {
      if (inst.cloudlet == v && inst.state == InstanceState::kRunning) {
        inst.state = InstanceState::kFailed;
        if (inst.role == InstanceRole::kActive) {
          lost_active.emplace_back(inst.chain_pos, inst.cloudlet);
        }
      }
    }
    for (const auto& [pos, at] : lost_active) {
      promote_for_position(svc, pos, at);
    }
    (void)refresh_state(id);
  }
}

void Orchestrator::repair_cloudlet(graph::NodeId v) {
  MECRA_CHECK(v < network_.num_nodes());
  down_cloudlets_.erase(v);
  for (auto& [id, svc] : services_) {
    std::erase_if(svc.instances, [&](const Instance& inst) {
      if (inst.cloudlet == v && inst.state == InstanceState::kFailed) {
        network_.release(v,
                         catalog_.function(svc.request.chain[inst.chain_pos])
                             .cpu_demand);
        return true;
      }
      return false;
    });
    (void)refresh_state(id);
  }
}

bool Orchestrator::is_cloudlet_down(graph::NodeId v) const {
  MECRA_CHECK(v < network_.num_nodes());
  return down_cloudlets_.contains(v);
}

std::vector<graph::NodeId> Orchestrator::down_cloudlets() const {
  return {down_cloudlets_.begin(), down_cloudlets_.end()};
}

bool Orchestrator::revive(ServiceId service_id) {
  Service& svc = service_mut(service_id);
  for (std::uint32_t p = 0; p < svc.request.length(); ++p) {
    bool active_running = false;
    const Instance* standby = nullptr;
    for (const Instance& inst : svc.instances) {
      if (inst.chain_pos != p || inst.state != InstanceState::kRunning) {
        continue;
      }
      if (inst.role == InstanceRole::kActive) active_running = true;
      if (inst.role == InstanceRole::kStandby &&
          (standby == nullptr || inst.id < standby->id)) {
        standby = &inst;
      }
    }
    if (active_running) continue;
    if (standby != nullptr) {
      promote_for_position(svc, p, standby->cloudlet);
      continue;
    }
    // No running instance at all: place a fresh active on the up cloudlet
    // with the largest residual that fits (ties: lowest node id).
    const auto& fn = catalog_.function(svc.request.chain[p]);
    graph::NodeId best = 0;
    double best_residual = -1.0;
    for (graph::NodeId u : network_.cloudlets()) {
      if (down_cloudlets_.contains(u)) continue;
      const double residual = network_.residual(u);
      if (residual >= fn.cpu_demand && residual > best_residual) {
        best = u;
        best_residual = residual;
      }
    }
    if (best_residual < 0.0) continue;  // nowhere to place; position stays down
    network_.consume(best, fn.cpu_demand);
    svc.instances.push_back(Instance{next_instance_++, p, best,
                                     InstanceRole::kActive,
                                     InstanceState::kRunning});
  }
  return refresh_state(service_id) != ServiceState::kDown;
}

std::size_t Orchestrator::reaugment(ServiceId service_id) {
  return reaugment_impl(service_id, /*deferred_ids=*/false);
}

std::size_t Orchestrator::reaugment_deferred(ServiceId service_id) {
  return reaugment_impl(service_id, /*deferred_ids=*/true);
}

void Orchestrator::assign_pending_instance_ids(ServiceId service_id) {
  Service& svc = service_mut(service_id);
  for (Instance& inst : svc.instances) {
    if (inst.id == kPendingInstanceId) inst.id = next_instance_++;
  }
}

std::size_t Orchestrator::reaugment_impl(ServiceId service_id,
                                         bool deferred_ids) {
  Service& svc = service_mut(service_id);
  if (svc.state == ServiceState::kDown) return 0;  // needs repair first

  // Exact greedy top-up: existing running instances (actives AND surviving
  // standbys) define each position's current redundancy; we repeatedly add
  // the feasible standby with the largest marginal ln-reliability gain
  // until the expectation holds again. Candidates obey the paper's
  // locality rule relative to the CURRENT active instance.
  const std::size_t len = svc.request.length();
  std::vector<std::uint32_t> running(len, 0);
  std::vector<graph::NodeId> active_at(len, 0);
  for (const Instance& inst : svc.instances) {
    if (inst.state != InstanceState::kRunning) continue;
    ++running[inst.chain_pos];
    if (inst.role == InstanceRole::kActive) {
      active_at[inst.chain_pos] = inst.cloudlet;
    }
  }

  // The shard map's neighbourhood cache gives byte-identical candidate
  // lists without the per-position BFS; use it once it exists.
  std::vector<std::vector<graph::NodeId>> allowed(len);
  for (std::uint32_t p = 0; p < len; ++p) {
    allowed[p] = shard_map_ != nullptr
                     ? shard_map_->neighborhood(active_at[p])
                     : network_.cloudlets_within(active_at[p], options_.l_hops);
  }

  auto ln_reliability = [&] {
    double ln_u = 0.0;
    for (std::uint32_t p = 0; p < len; ++p) {
      const double r = catalog_.function(svc.request.chain[p]).reliability;
      ln_u += std::log(
          std::max(1e-300, mec::function_reliability(r, running[p])));
    }
    return ln_u;
  };

  std::size_t added = 0;
  const double ln_target = std::log(svc.request.expectation);
  while (ln_reliability() < ln_target) {
    double best_gain = 0.0;
    std::uint32_t best_p = static_cast<std::uint32_t>(len);
    graph::NodeId best_u = 0;
    for (std::uint32_t p = 0; p < len; ++p) {
      const auto& fn = catalog_.function(svc.request.chain[p]);
      if (fn.reliability >= 1.0) continue;
      const double gain =
          std::log(mec::function_reliability(fn.reliability, running[p] + 1)) -
          std::log(mec::function_reliability(fn.reliability, running[p]));
      if (gain <= best_gain) continue;
      for (graph::NodeId u : allowed[p]) {
        if (!down_cloudlets_.contains(u) &&
            network_.residual(u) >= fn.cpu_demand) {
          best_gain = gain;
          best_p = p;
          best_u = u;
          break;  // any feasible cloudlet realizes the same gain
        }
      }
    }
    if (best_p == len) break;  // nothing feasible helps

    const auto& fn = catalog_.function(svc.request.chain[best_p]);
    network_.consume(best_u, fn.cpu_demand);
    ++running[best_p];
    ++added;
    svc.instances.push_back(Instance{
        deferred_ids ? kPendingInstanceId : next_instance_++, best_p, best_u,
        InstanceRole::kStandby, InstanceState::kRunning});
  }
  (void)refresh_state(service_id);
  return added;
}

void Orchestrator::teardown(ServiceId service_id) {
  Service& svc = service_mut(service_id);
  for (const Instance& inst : svc.instances) {
    network_.release(inst.cloudlet,
                     catalog_.function(svc.request.chain[inst.chain_pos])
                         .cpu_demand);
  }
  services_.erase(service_id);
}

void Orchestrator::restore_service(Service svc, bool consume_capacity) {
  MECRA_CHECK_MSG(!services_.contains(svc.id),
                  "restore_service: duplicate service id");
  for (const Instance& inst : svc.instances) {
    MECRA_CHECK_MSG(inst.id != kPendingInstanceId,
                    "restore_service: pending instance id in snapshot");
    MECRA_CHECK_MSG(inst.chain_pos < svc.request.length(),
                    "restore_service: chain position out of range");
    MECRA_CHECK_MSG(network_.is_cloudlet(inst.cloudlet),
                    "restore_service: instance not on a cloudlet");
    if (consume_capacity) {
      network_.consume(inst.cloudlet,
                       catalog_.function(svc.request.chain[inst.chain_pos])
                           .cpu_demand);
    }
    if (inst.id >= next_instance_) next_instance_ = inst.id + 1;
  }
  if (svc.id >= next_service_) next_service_ = svc.id + 1;
  const ServiceId id = svc.id;
  services_.emplace(id, std::move(svc));
}

void Orchestrator::restore_down_cloudlet(graph::NodeId v) {
  MECRA_CHECK(v < network_.num_nodes());
  down_cloudlets_.insert(v);
}

void Orchestrator::set_id_counters(ServiceId next_service,
                                   InstanceId next_instance) {
  MECRA_CHECK_MSG(next_service >= next_service_ &&
                      next_instance >= next_instance_,
                  "set_id_counters: counters may only move forward");
  next_service_ = next_service;
  next_instance_ = next_instance;
}

ServiceState Orchestrator::refresh_state(ServiceId service_id) {
  Service& svc = service_mut(service_id);
  bool degraded = false;
  for (std::uint32_t p = 0; p < svc.request.length(); ++p) {
    bool active_running = false;
    bool any_failed = false;
    for (const Instance& inst : svc.instances) {
      if (inst.chain_pos != p) continue;
      if (inst.state == InstanceState::kRunning &&
          inst.role == InstanceRole::kActive) {
        active_running = true;
      }
      if (inst.state == InstanceState::kFailed) any_failed = true;
    }
    if (!active_running) {
      svc.state = ServiceState::kDown;
      return svc.state;
    }
    degraded = degraded || any_failed;
  }
  svc.state = degraded ? ServiceState::kDegraded : ServiceState::kHealthy;
  return svc.state;
}

}  // namespace mecra::orchestrator

// Tests for the write-ahead event journal (orchestrator/journal.h): frame
// checksums, scan/replay round-trips through io::Json, bit-identical
// recovery of orchestrator + controller state, torn-tail tolerance,
// loud mid-file corruption errors, and the journal.torn_write fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "graph/topology.h"
#include "io/scenario_io.h"
#include "orchestrator/journal.h"
#include "util/check.h"
#include "util/faultpoint.h"

namespace mecra::orchestrator {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Path 0-1-2 with generous cloudlets at 1 and 2; one two-function chain.
struct World {
  mec::MecNetwork network{graph::path_graph(3), {0.0, 3000.0, 3000.0}};
  mec::VnfCatalog catalog{{{0, "a", 0.8, 300.0}, {0, "b", 0.9, 400.0}}};
  mec::SfcRequest request;

  World() {
    request.chain = {0, 1};
    request.expectation = 0.99;
  }
};

/// Flat comparable view of everything restore_service/recover must get
/// right: the whole service table, residuals, down set, and id counters.
struct OrchSnap {
  std::vector<std::tuple<ServiceId, std::uint64_t, std::uint32_t,
                         graph::NodeId, int, int>>
      instances;
  std::vector<double> residuals;
  std::vector<graph::NodeId> down;
  ServiceId next_service = 0;
  InstanceId next_instance = 0;
  bool has_shard_map = false;

  friend bool operator==(const OrchSnap&, const OrchSnap&) = default;
};

OrchSnap snap_of(const Orchestrator& orch) {
  OrchSnap snap;
  for (const ServiceId id : orch.services()) {
    for (const Instance& inst : orch.service(id).instances) {
      snap.instances.emplace_back(id, inst.id, inst.chain_pos, inst.cloudlet,
                                  static_cast<int>(inst.role),
                                  static_cast<int>(inst.state));
    }
  }
  for (graph::NodeId v = 0; v < orch.network().num_nodes(); ++v) {
    snap.residuals.push_back(orch.network().residual(v));
  }
  snap.down = orch.down_cloudlets();
  snap.next_service = orch.next_service_id();
  snap.next_instance = orch.next_instance_id();
  snap.has_shard_map = orch.has_shard_map();
  return snap;
}

void expect_controller_state_eq(const ControllerState& a,
                                const ControllerState& b) {
  ASSERT_EQ(a.tracked.size(), b.tracked.size());
  for (std::size_t i = 0; i < a.tracked.size(); ++i) {
    EXPECT_EQ(a.tracked[i].service, b.tracked[i].service);
    EXPECT_EQ(a.tracked[i].dirty, b.tracked[i].dirty);
    EXPECT_EQ(a.tracked[i].not_before, b.tracked[i].not_before);
    EXPECT_EQ(a.tracked[i].backoff, b.tracked[i].backoff);
  }
  EXPECT_EQ(a.repair_queue, b.repair_queue);
  EXPECT_EQ(a.next_batch, b.next_batch);
  EXPECT_EQ(a.last_now, b.last_now);
  EXPECT_EQ(a.metrics.repairs, b.metrics.repairs);
  EXPECT_EQ(a.metrics.reaugment_attempts, b.metrics.reaugment_attempts);
  EXPECT_EQ(a.metrics.reaugment_successes, b.metrics.reaugment_successes);
  EXPECT_EQ(a.metrics.reaugment_failures, b.metrics.reaugment_failures);
  EXPECT_EQ(a.metrics.standbys_added, b.metrics.standbys_added);
  EXPECT_EQ(a.metrics.revivals, b.metrics.revivals);
}

/// First running standby instance of the service (there is one: the tests
/// use expectation 0.99 on a roomy network).
InstanceId a_standby_of(const Orchestrator& orch, ServiceId id) {
  for (const Instance& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby &&
        inst.state == InstanceState::kRunning) {
      return inst.id;
    }
  }
  ADD_FAILURE() << "no running standby";
  return 0;
}

TEST(JournalFraming, Crc32MatchesTheIeeeCheckVector) {
  EXPECT_EQ(journal_crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(journal_crc32(""), 0u);
}

/// Bytewise CRC-32 (reflected IEEE polynomial), bit by bit: the reference
/// the table-driven journal_crc32 must reproduce.
std::uint32_t bitwise_crc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(JournalFraming, Crc32MatchesABytewiseReferenceOnRandomBuffers) {
  // Every length 0..64 (all slice-by-8 remainders), then longer buffers at
  // every alignment of their start within an 8-byte word.
  util::Rng rng(2024);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.index(256));
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::string_view view(buffer.data(), len);
    EXPECT_EQ(journal_crc32(view), bitwise_crc32(view)) << "len " << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t offset = rng.index(8);
    const std::size_t len = rng.index(4096);
    const std::string_view view(buffer.data() + offset, len);
    EXPECT_EQ(journal_crc32(view), bitwise_crc32(view))
        << "offset " << offset << " len " << len;
  }
}

// --- the io::JsonObject trees the record encoders replaced (test oracle) ---

io::Json oracle_instance(const Instance& inst) {
  MECRA_CHECK_MSG(inst.id < (1ULL << 53),
                  "journal: instance id too large to serialize");
  io::JsonObject o;
  o.set("id", io::Json(inst.id));
  o.set("pos", io::Json(inst.chain_pos));
  o.set("cloudlet", io::Json(inst.cloudlet));
  o.set("role", io::Json(static_cast<int>(inst.role)));
  o.set("state", io::Json(static_cast<int>(inst.state)));
  return {std::move(o)};
}

io::Json oracle_service(const Service& svc) {
  MECRA_CHECK_MSG(svc.id < (1ULL << 53),
                  "journal: service id too large to serialize");
  io::JsonObject o;
  o.set("id", io::Json(svc.id));
  o.set("request", io::to_json(svc.request));
  o.set("state", io::Json(static_cast<int>(svc.state)));
  io::JsonArray instances;
  for (const Instance& inst : svc.instances) {
    instances.emplace_back(oracle_instance(inst));
  }
  o.set("instances", io::Json(std::move(instances)));
  return {std::move(o)};
}

io::Json oracle_residuals(const mec::MecNetwork& network,
                          const std::vector<const Service*>& services) {
  std::set<graph::NodeId> nodes;
  for (const Service* svc : services) {
    for (const Instance& inst : svc->instances) nodes.insert(inst.cloudlet);
  }
  io::JsonArray arr(nodes.size());
  std::size_t i = 0;
  for (const graph::NodeId v : nodes) {
    io::JsonArray pair(2);
    pair[0] = io::Json(v);
    pair[1] = io::Json(network.residual(v));
    arr[i++] = io::Json(std::move(pair));
  }
  return io::Json(std::move(arr));
}

std::string oracle_admit(const Orchestrator& orch, const Service& svc) {
  io::JsonObject data;
  data.set("service", oracle_service(svc));
  data.set("residuals", oracle_residuals(orch.network(), {&svc}));
  return io::Json(std::move(data)).dump();
}

std::string oracle_batch(const Orchestrator& orch,
                         const std::vector<const Service*>& admitted) {
  io::JsonObject data;
  io::JsonArray services;
  for (const Service* svc : admitted) {
    services.emplace_back(oracle_service(*svc));
  }
  data.set("services", io::Json(std::move(services)));
  data.set("residuals", oracle_residuals(orch.network(), admitted));
  data.set("next_service", io::Json(orch.next_service_id()));
  data.set("next_instance", io::Json(orch.next_instance_id()));
  return io::Json(std::move(data)).dump();
}

std::string oracle_teardown(ServiceId service) {
  io::JsonObject data;
  data.set("service", io::Json(service));
  return io::Json(std::move(data)).dump();
}

io::Json oracle_controller(const ControllerState& state) {
  io::JsonObject o;
  io::JsonArray tracked;
  for (const ControllerState::Entry& entry : state.tracked) {
    io::JsonObject e;
    e.set("service", io::Json(entry.service));
    e.set("dirty", io::Json(entry.dirty));
    e.set("not_before", io::Json(entry.not_before));
    e.set("backoff", io::Json(entry.backoff));
    tracked.emplace_back(std::move(e));
  }
  o.set("tracked", io::Json(std::move(tracked)));
  io::JsonArray repairs;
  for (const auto& [due, v] : state.repair_queue) {
    io::JsonArray pair;
    pair.emplace_back(due);
    pair.emplace_back(v);
    repairs.emplace_back(std::move(pair));
  }
  o.set("repair_queue", io::Json(std::move(repairs)));
  o.set("next_batch", io::Json(state.next_batch));
  o.set("last_now", io::Json(state.last_now));
  io::JsonObject m;
  m.set("repairs", io::Json(state.metrics.repairs));
  m.set("reaugment_attempts", io::Json(state.metrics.reaugment_attempts));
  m.set("reaugment_successes", io::Json(state.metrics.reaugment_successes));
  m.set("reaugment_failures", io::Json(state.metrics.reaugment_failures));
  m.set("standbys_added", io::Json(state.metrics.standbys_added));
  m.set("revivals", io::Json(state.metrics.revivals));
  o.set("metrics", io::Json(std::move(m)));
  return {std::move(o)};
}

std::string oracle_snapshot(const Orchestrator& orch,
                            const Controller& controller) {
  io::JsonObject data;
  data.set("network", io::to_json(orch.network()));
  data.set("catalog", io::to_json(orch.catalog()));
  io::JsonArray services;
  for (const ServiceId id : orch.services()) {
    services.emplace_back(oracle_service(orch.service(id)));
  }
  data.set("services", io::Json(std::move(services)));
  io::JsonArray down;
  for (const graph::NodeId v : orch.down_cloudlets()) down.emplace_back(v);
  data.set("down", io::Json(std::move(down)));
  data.set("next_service", io::Json(orch.next_service_id()));
  data.set("next_instance", io::Json(orch.next_instance_id()));
  data.set("has_shard_map", io::Json(orch.has_shard_map()));
  data.set("controller", oracle_controller(controller.state()));
  return io::Json(std::move(data)).dump();
}

/// An id drawn up to `max` with the extremes over-represented.
std::uint64_t random_id(util::Rng& rng, std::uint64_t max) {
  switch (rng.index(4)) {
    case 0: return max;
    case 1: return rng.index(16);
    default: return max == ~0ULL ? rng() : rng() % (max + 1);
  }
}

Service random_service(util::Rng& rng, std::size_t num_nodes) {
  constexpr std::uint64_t kMaxId = (1ULL << 53) - 1;
  Service svc;
  svc.id = random_id(rng, kMaxId);
  // Request ids have no 2^53 check: any value prints through a double.
  svc.request.id = random_id(rng, ~0ULL);
  const std::size_t len = 1 + rng.index(10);
  for (std::size_t i = 0; i < len; ++i) {
    svc.request.chain.push_back(static_cast<mec::FunctionId>(rng.index(30)));
  }
  svc.request.expectation =
      rng.index(4) == 0 ? 1.0 : 0.9 + 0.0999 * rng.uniform01();
  svc.request.source = static_cast<graph::NodeId>(rng.index(num_nodes));
  svc.request.destination = static_cast<graph::NodeId>(rng.index(num_nodes));
  svc.state = static_cast<ServiceState>(rng.index(3));
  const std::size_t instances = 1 + rng.index(12);
  for (std::size_t i = 0; i < instances; ++i) {
    Instance inst;
    inst.id = random_id(rng, kMaxId);
    inst.chain_pos = static_cast<std::uint32_t>(rng.index(len));
    inst.cloudlet = static_cast<graph::NodeId>(rng.index(num_nodes));
    inst.role = static_cast<InstanceRole>(rng.index(2));
    inst.state = static_cast<InstanceState>(rng.index(2));
    svc.instances.push_back(inst);
  }
  return svc;
}

TEST(RecordEncoders, MatchTheJsonObjectTreesOnRandomRecords) {
  util::Rng rng(4242);
  const std::size_t n = 25;
  std::vector<double> capacity(n);
  for (double& c : capacity) c = 500.0 + 3000.0 * rng.uniform01();
  const mec::MecNetwork network(graph::path_graph(n), capacity);
  for (int trial = 0; trial < 300; ++trial) {
    Orchestrator orch(network, mec::VnfCatalog({{0, "a", 0.9, 300.0}}), {});
    for (graph::NodeId v = 0; v < n; ++v) {
      orch.restore_residual(v, capacity[v] * rng.uniform01());
    }
    orch.set_id_counters(random_id(rng, ~0ULL), random_id(rng, ~0ULL));
    std::vector<Service> services;
    const std::size_t count = rng.index(6);  // empty batches included
    for (std::size_t i = 0; i < count; ++i) {
      services.push_back(random_service(rng, n));
    }
    std::vector<const Service*> admitted;
    for (const Service& svc : services) admitted.push_back(&svc);

    std::string got;
    encode_batch_record(got, orch, admitted);
    EXPECT_EQ(got, oracle_batch(orch, admitted)) << "trial " << trial;
    for (const Service& svc : services) {
      got.clear();
      encode_admit_record(got, orch, svc);
      EXPECT_EQ(got, oracle_admit(orch, svc));
    }
    const ServiceId gone = random_id(rng, ~0ULL);
    got.clear();
    encode_teardown_record(got, gone);
    EXPECT_EQ(got, oracle_teardown(gone));
  }
}

TEST(RecordEncoders, RejectIdsBeyondTwoToThe53) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Service svc;
  svc.id = 1ULL << 53;
  svc.request = w.request;
  svc.instances.push_back({7, 0, 1, InstanceRole::kActive,
                           InstanceState::kRunning});
  std::string out;
  EXPECT_THROW(encode_admit_record(out, orch, svc), util::CheckFailure);
  EXPECT_THROW((void)oracle_service(svc), util::CheckFailure);
  svc.id = (1ULL << 53) - 1;
  svc.instances[0].id = 1ULL << 53;
  out.clear();
  EXPECT_THROW(encode_batch_record(out, orch, {&svc}), util::CheckFailure);
  svc.instances[0].id = (1ULL << 53) - 1;
  out.clear();
  encode_batch_record(out, orch, {&svc});
  EXPECT_EQ(out, oracle_batch(orch, {&svc}));
}

TEST(RecordEncoders, SnapshotMatchesTheJsonObjectTree) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  util::Rng rng(3);
  const auto id1 = orch.admit(w.request, rng);
  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value() && id2.has_value());
  controller.on_admit(*id1, 0.5);
  controller.on_admit(*id2, 0.75);
  (void)orch.fail_instance(*id1, a_standby_of(orch, *id1));
  controller.on_instance_failed(*id1, 1.0);
  orch.fail_cloudlet(2);
  controller.on_cloudlet_failed(2, 2.0);
  (void)controller.reconcile(3.1);
  std::string got;
  encode_snapshot_record(got, orch, controller);
  EXPECT_EQ(got, oracle_snapshot(orch, controller));
  ASSERT_FALSE(orch.down_cloudlets().empty());
}

TEST(JournalFraming, AppendScanRoundTripsThroughJsonParse) {
  const std::string path = temp_path("roundtrip.journal");
  {
    Journal journal(path);
    io::JsonObject data;
    data.set("cloudlet", io::Json(7));
    EXPECT_EQ(
        journal.append("repair", 1.5, io::Json(std::move(data)).dump()), 0u);
    EXPECT_EQ(journal.reconcile_mark(2.25), 1u);
    EXPECT_EQ(journal.next_seq(), 2u);
  }
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 0u);
  EXPECT_EQ(scan.records[0].kind, "repair");
  EXPECT_EQ(scan.records[0].time, 1.5);
  EXPECT_EQ(scan.records[0].data().as_object().at("cloudlet").as_int(), 7);
  EXPECT_EQ(scan.records[1].seq, 1u);
  EXPECT_EQ(scan.records[1].kind, "reconcile");
  EXPECT_EQ(scan.records[1].time, 2.25);
  EXPECT_EQ(scan.bytes_used, std::filesystem::file_size(path));
}

TEST(JournalFraming, MissingAndEmptyFilesScanToZeroRecords) {
  const JournalScan missing = scan_journal(temp_path("no_such.journal"));
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn_tail);

  const std::string path = temp_path("empty.journal");
  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  const JournalScan empty = scan_journal(path);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.torn_tail);
  // recover() is the layer that demands at least a snapshot.
  EXPECT_THROW((void)recover(path, {}), util::CheckFailure);
}

TEST(JournalFraming, TornTailIsDroppedNotFatal) {
  const std::string path = temp_path("torn.journal");
  {
    Journal journal(path);
    journal.reconcile_mark(1.0);
    journal.reconcile_mark(2.0);
  }
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);

  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].time, 1.0);

  // kContinue truncates the tear and resumes the sequence chain.
  Journal resumed(path, Journal::Mode::kContinue);
  EXPECT_EQ(resumed.next_seq(), 1u);
  EXPECT_EQ(resumed.reconcile_mark(3.0), 1u);
  const JournalScan rescanned = scan_journal(path);
  EXPECT_FALSE(rescanned.torn_tail);
  ASSERT_EQ(rescanned.records.size(), 2u);
  EXPECT_EQ(rescanned.records[1].time, 3.0);
}

TEST(JournalFraming, MidFileChecksumMismatchFailsLoudly) {
  const std::string path = temp_path("corrupt.journal");
  {
    Journal journal(path);
    journal.reconcile_mark(1.0);
    journal.reconcile_mark(2.0);
  }
  // Flip one payload byte of the FIRST record: a bad checksum with more
  // data after it is silent corruption, never a tolerable torn tail.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[10] = static_cast<char>(bytes[10] ^ 0x40);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  EXPECT_THROW((void)scan_journal(path), util::CheckFailure);
  EXPECT_THROW((void)recover(path, {}), util::CheckFailure);
}

/// Hand-frames a payload exactly like Journal::append does.
void write_frame(std::ofstream& out, const std::string& payload) {
  const auto le = [&out](std::uint32_t x) {
    char b[4] = {static_cast<char>(x & 0xffu),
                 static_cast<char>((x >> 8) & 0xffu),
                 static_cast<char>((x >> 16) & 0xffu),
                 static_cast<char>((x >> 24) & 0xffu)};
    out.write(b, 4);
  };
  le(static_cast<std::uint32_t>(payload.size()));
  le(journal_crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

TEST(JournalFraming, SequenceGapsAndForeignVersionsFailLoudly) {
  const std::string gap_path = temp_path("seqgap.journal");
  {
    std::ofstream out(gap_path, std::ios::binary | std::ios::trunc);
    write_frame(out, R"({"v":1,"seq":3,"t":0,"kind":"reconcile","data":{}})");
  }
  EXPECT_THROW((void)scan_journal(gap_path), util::CheckFailure);

  const std::string ver_path = temp_path("version.journal");
  {
    std::ofstream out(ver_path, std::ios::binary | std::ios::trunc);
    write_frame(out, R"({"v":2,"seq":0,"t":0,"kind":"reconcile","data":{}})");
  }
  EXPECT_THROW((void)scan_journal(ver_path), util::CheckFailure);
}

TEST(JournalFraming, TornWriteFaultWedgesTheJournal) {
  util::FaultRegistry::global().clear();
  const std::string path = temp_path("wedged.journal");
  Journal journal(path);
  journal.reconcile_mark(1.0);

  util::FaultRegistry::global().arm("journal.torn_write",
                                    util::FaultSpec{.times = 1});
  EXPECT_THROW(journal.reconcile_mark(2.0), util::InjectedFault);
  util::FaultRegistry::global().clear();
  EXPECT_TRUE(journal.wedged());
  // Wedged: the file ends mid-frame, so every further append refuses.
  EXPECT_THROW(journal.reconcile_mark(3.0), util::CheckFailure);

  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);

  // A fresh kContinue handle (the restarted process) truncates the tear
  // and keeps appending where the crash left off.
  Journal resumed(path, Journal::Mode::kContinue);
  EXPECT_FALSE(resumed.wedged());
  EXPECT_EQ(resumed.reconcile_mark(3.0), 1u);
  EXPECT_FALSE(scan_journal(path).torn_tail);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Appends the same three records under the given policy; callers compare
/// the resulting bytes.
void write_three(const std::string& path, Durability durability) {
  Journal journal(path, Journal::Mode::kTruncate, durability);
  journal.reconcile_mark(1.0);
  io::JsonObject data;
  data.set("cloudlet", io::Json(7));
  journal.append("repair", 2.0, io::Json(std::move(data)).dump());
  journal.reconcile_mark(3.0);
  journal.flush();
}

TEST(GroupCommit, HandwrittenEnvelopeMatchesJsonObjectDump) {
  // append() serializes the record envelope by hand (hot path); the bytes
  // must equal the JsonObject-wrapper dump the original implementation
  // produced — including the awkward-double time and string escaping.
  const std::string path = temp_path("gc_envelope.journal");
  {
    Journal journal(path);
    io::JsonObject data;
    data.set("cloudlet", io::Json(7));
    data.set("note", io::Json(std::string("a\"b\\c\n")));
    journal.append("repair", 0.1, io::Json(std::move(data)).dump());
  }
  const std::string bytes = file_bytes(path);
  ASSERT_GT(bytes.size(), 8u);

  io::JsonObject rec;
  rec.set("v", io::Json(1));
  rec.set("seq", io::Json(0));
  rec.set("t", io::Json(0.1));
  rec.set("kind", io::Json(std::string("repair")));
  io::JsonObject data;
  data.set("cloudlet", io::Json(7));
  data.set("note", io::Json(std::string("a\"b\\c\n")));
  rec.set("data", io::Json(std::move(data)));
  EXPECT_EQ(bytes.substr(8), io::Json(std::move(rec)).dump());
}

TEST(GroupCommit, BytesAreByteIdenticalAcrossDurabilityPolicies) {
  const std::string per_record = temp_path("gc_per_record.journal");
  const std::string per_window = temp_path("gc_per_window.journal");
  const std::string budget = temp_path("gc_bytes.journal");
  write_three(per_record, Durability::per_record());
  write_three(per_window, Durability::per_window());
  write_three(budget, Durability::bytes(48));

  const std::string baseline = file_bytes(per_record);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(file_bytes(per_window), baseline);
  EXPECT_EQ(file_bytes(budget), baseline);

  // Same records either way, and the scanner cannot tell who wrote them.
  const JournalScan scan = scan_journal(per_window);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].seq, 2u);
}

TEST(GroupCommit, PerWindowBuffersUntilFlushAndDtorFlushesTheRest) {
  const std::string path = temp_path("gc_buffering.journal");
  {
    Journal journal(path, Journal::Mode::kTruncate, Durability::per_window());
    journal.reconcile_mark(1.0);
    journal.reconcile_mark(2.0);
    EXPECT_EQ(journal.buffered_records(), 2u);
    EXPECT_GT(journal.buffered_bytes(), 0u);
    // Nothing on disk until the group boundary.
    EXPECT_TRUE(scan_journal(path).records.empty());
    journal.flush();
    EXPECT_EQ(journal.buffered_records(), 0u);
    EXPECT_EQ(scan_journal(path).records.size(), 2u);
    journal.reconcile_mark(3.0);
    EXPECT_EQ(scan_journal(path).records.size(), 2u);
    // Destruction flushes the pending tail (a clean shutdown loses nothing).
  }
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].time, 3.0);
}

TEST(GroupCommit, ByteBudgetFlushesOnceThresholdIsReached) {
  const std::string path = temp_path("gc_budget.journal");
  Journal journal(path, Journal::Mode::kTruncate, Durability::bytes(1 << 20));
  journal.reconcile_mark(1.0);
  const std::size_t one_frame = journal.buffered_bytes();
  ASSERT_GT(one_frame, 0u);
  // Shrink the budget below one frame: the next append must auto-flush
  // everything pending.
  journal.set_durability(Durability::bytes(1));
  EXPECT_EQ(journal.buffered_records(), 0u);  // set_durability flushed
  journal.reconcile_mark(2.0);
  EXPECT_EQ(journal.buffered_records(), 0u);  // budget hit on append
  EXPECT_EQ(scan_journal(path).records.size(), 2u);
}

TEST(GroupCommit, TornWriteInsideAGroupKeepsTheFlushedPrefix) {
  util::FaultRegistry::global().clear();
  const std::string path = temp_path("gc_torn_group.journal");
  Journal journal(path, Journal::Mode::kTruncate, Durability::per_window());

  // Group 1 flushes cleanly.
  journal.reconcile_mark(1.0);
  journal.reconcile_mark(2.0);
  journal.flush();

  // Group 2 tears mid-write: the cut lands inside the frame containing the
  // buffer midpoint, so earlier frames of the group survive complete and
  // that frame becomes the torn tail.
  journal.reconcile_mark(3.0);
  journal.reconcile_mark(4.0);
  journal.reconcile_mark(5.0);
  EXPECT_EQ(journal.buffered_records(), 3u);
  util::FaultRegistry::global().arm("journal.torn_write",
                                    util::FaultSpec{.times = 1});
  EXPECT_THROW(journal.flush(), util::InjectedFault);
  util::FaultRegistry::global().clear();
  EXPECT_TRUE(journal.wedged());
  EXPECT_EQ(journal.buffered_records(), 0u);
  EXPECT_THROW(journal.reconcile_mark(6.0), util::CheckFailure);

  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  // Flushed prefix (2 records) + the torn group's complete frames before
  // the midpoint cut (3 equal-size frames -> frame 1 of the group holds
  // the midpoint, so exactly one more complete record).
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].time, 3.0);

  // The restarted process truncates the tear and resumes the seq chain.
  Journal resumed(path, Journal::Mode::kContinue, Durability::per_window());
  EXPECT_EQ(resumed.next_seq(), 3u);
  resumed.reconcile_mark(6.0);
  resumed.flush();
  const JournalScan rescanned = scan_journal(path);
  EXPECT_FALSE(rescanned.torn_tail);
  ASSERT_EQ(rescanned.records.size(), 4u);
  EXPECT_EQ(rescanned.records[3].time, 6.0);
}

TEST(GroupCommit, DurabilityParseRoundTrips) {
  EXPECT_EQ(Durability::parse("per_record").policy,
            Durability::Policy::kPerRecord);
  EXPECT_EQ(Durability::parse("per_window").policy,
            Durability::Policy::kPerGroup);
  const Durability b = Durability::parse("bytes:65536");
  EXPECT_EQ(b.policy, Durability::Policy::kBytes);
  EXPECT_EQ(b.byte_budget, 65536u);
  EXPECT_EQ(Durability::per_window().to_string(), "per_window");
  EXPECT_EQ(Durability::bytes(42).to_string(), "bytes:42");
  EXPECT_EQ(Durability::parse(Durability::per_record().to_string()).policy,
            Durability::Policy::kPerRecord);
  EXPECT_THROW((void)Durability::parse("fsync_sometimes"),
               util::CheckFailure);
  EXPECT_THROW((void)Durability::parse("bytes:"), util::CheckFailure);
  EXPECT_THROW((void)Durability::parse("bytes:0"), util::CheckFailure);
}

TEST(JournalRecovery, SnapshotOnlyRoundTripIsBitIdentical) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  util::Rng rng(3);
  const auto id1 = orch.admit(w.request, rng);
  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value() && id2.has_value());
  controller.on_admit(*id1, 0.5);
  controller.on_admit(*id2, 0.75);
  (void)orch.fail_instance(*id1, a_standby_of(orch, *id1));
  controller.on_instance_failed(*id1, 1.0);
  orch.fail_cloudlet(2);
  controller.on_cloudlet_failed(2, 2.0);
  (void)controller.reconcile(3.0);

  const std::string path = temp_path("snapshot_only.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 3.0);

  RecoverOptions options;
  const Recovered recovered = recover(path, options);
  EXPECT_EQ(recovered.replayed_events, 0u);
  EXPECT_FALSE(recovered.torn_tail);
  EXPECT_EQ(recovered.last_time, 3.0);
  EXPECT_EQ(recovered.last_seq, 0u);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
  expect_controller_state_eq(recovered.controller->state(),
                             controller.state());
  EXPECT_EQ(recovered.controller->next_wakeup(), controller.next_wakeup());
}

TEST(JournalRecovery, SnapshotPlusTailReplaysToTheSameState) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  const std::string path = temp_path("tail_replay.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 0.0);

  // Drive the full event vocabulary, journaling exactly like the chaos
  // driver does: effect records for admissions, thin re-invocation records
  // (written BEFORE applying) for everything deterministic.
  util::Rng rng(5);
  const auto id1 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value());
  journal.admit(orch, orch.service(*id1), 1.0);
  controller.on_admit(*id1, 1.0);
  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id2.has_value());
  journal.admit(orch, orch.service(*id2), 1.5);
  controller.on_admit(*id2, 1.5);

  const InstanceId victim = a_standby_of(orch, *id1);
  journal.instance_failure(*id1, victim, 2.0);
  (void)orch.fail_instance(*id1, victim);
  controller.on_instance_failed(*id1, 2.0);

  journal.cloudlet_outage(1, 3.0);
  orch.fail_cloudlet(1);
  controller.on_cloudlet_failed(1, 3.0);

  journal.reconcile_mark(4.0);
  (void)controller.reconcile(4.0);

  journal.teardown(*id2, 5.0);
  orch.teardown(*id2);
  controller.on_teardown(*id2);

  journal.repair(1, 6.0);
  orch.repair_cloudlet(1);

  RecoverOptions options;
  const Recovered recovered = recover(path, options);
  EXPECT_EQ(recovered.replayed_events, 7u);
  EXPECT_EQ(recovered.last_time, 6.0);
  EXPECT_EQ(recovered.last_seq, 7u);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
  expect_controller_state_eq(recovered.controller->state(),
                             controller.state());

  // The recovered pair is LIVE, not a museum piece: both sides admit the
  // next request identically.
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const auto next_live = orch.admit(w.request, rng_a);
  const auto next_rec = recovered.orch->admit(w.request, rng_b);
  ASSERT_TRUE(next_live.has_value() && next_rec.has_value());
  EXPECT_EQ(*next_live, *next_rec);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
}

TEST(JournalRecovery, TheLastOfSeveralSnapshotsWins) {
  // recover() applies records one at a time, rebuilding from every
  // snapshot it meets; the state and counters must come out as if it had
  // started at the last snapshot.
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  const std::string path = temp_path("two_snapshots.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 0.0);
  util::Rng rng(21);
  const auto id1 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value());
  journal.admit(orch, orch.service(*id1), 1.0);
  controller.on_admit(*id1, 1.0);
  journal.cloudlet_outage(2, 2.0);
  orch.fail_cloudlet(2);
  controller.on_cloudlet_failed(2, 2.0);
  journal.snapshot(orch, controller, 2.5);
  journal.repair(2, 3.0);
  orch.repair_cloudlet(2);
  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id2.has_value());
  journal.admit(orch, orch.service(*id2), 3.5);
  controller.on_admit(*id2, 3.5);

  const Recovered recovered = recover(path, {});
  EXPECT_EQ(recovered.replayed_events, 2u);
  EXPECT_EQ(recovered.last_seq, 5u);
  EXPECT_EQ(recovered.last_time, 3.5);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
  expect_controller_state_eq(recovered.controller->state(),
                             controller.state());
}

TEST(JournalRecovery, TornFinalRecordRecoversToTheLastCompleteEvent) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  const std::string path = temp_path("torn_recover.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 0.0);

  util::Rng rng(9);
  const auto id1 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value());
  journal.admit(orch, orch.service(*id1), 1.0);
  controller.on_admit(*id1, 1.0);
  const OrchSnap after_first = snap_of(orch);
  const ControllerState state_first = controller.state();

  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id2.has_value());
  journal.admit(orch, orch.service(*id2), 2.0);
  controller.on_admit(*id2, 2.0);

  // Tear the second admit's frame: recovery lands exactly on the state
  // after the first admit, flagged as a torn tail.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5);
  RecoverOptions options;
  const Recovered recovered = recover(path, options);
  EXPECT_TRUE(recovered.torn_tail);
  EXPECT_EQ(recovered.replayed_events, 1u);
  EXPECT_EQ(recovered.last_seq, 1u);
  EXPECT_EQ(recovered.last_time, 1.0);
  EXPECT_EQ(snap_of(*recovered.orch), after_first);
  expect_controller_state_eq(recovered.controller->state(), state_first);
}

}  // namespace
}  // namespace mecra::orchestrator

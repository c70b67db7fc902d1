#include "orchestrator/journal.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <utility>

#include "io/scenario_io.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/faultpoint.h"

namespace mecra::orchestrator {

namespace {

/// Slice-by-8 tables for the reflected IEEE polynomial: row 0 is the
/// classic bytewise table, row k advances a byte through k further zero
/// bytes, so eight input bytes fold into the CRC with eight lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

/// Appends an integer field exactly as io::Json prints it: the tree
/// stores every number as a double, so the value goes through the same
/// conversion (ids beyond 2^53 would lose precision there too, hence the
/// explicit id checks below).
template <typename T>
void put_int(std::string& out, T value) {
  io::dump_number_append(out, static_cast<double>(value));
}

void encode_instance(std::string& out, const Instance& inst) {
  // Ids round-trip through double; anything near 2^53 (in particular the
  // orchestrator's pending-id sentinel) must never reach a record.
  MECRA_CHECK_MSG(inst.id < (1ULL << 53),
                  "journal: instance id too large to serialize");
  out += "{\"id\":";
  put_int(out, inst.id);
  out += ",\"pos\":";
  put_int(out, inst.chain_pos);
  out += ",\"cloudlet\":";
  put_int(out, inst.cloudlet);
  out += ",\"role\":";
  put_int(out, static_cast<int>(inst.role));
  out += ",\"state\":";
  put_int(out, static_cast<int>(inst.state));
  out += '}';
}

Instance instance_from_json(const io::Json& json) {
  const io::JsonObject& o = json.as_object();
  Instance inst;
  inst.id = static_cast<InstanceId>(o.at("id").as_int());
  inst.chain_pos = static_cast<std::uint32_t>(o.at("pos").as_int());
  inst.cloudlet = static_cast<graph::NodeId>(o.at("cloudlet").as_int());
  inst.role = static_cast<InstanceRole>(o.at("role").as_int());
  inst.state = static_cast<InstanceState>(o.at("state").as_int());
  return inst;
}

/// The io::to_json(const mec::SfcRequest&) object, encoded directly.
void encode_request(std::string& out, const mec::SfcRequest& request) {
  out += "{\"id\":";
  put_int(out, request.id);
  out += ",\"chain\":[";
  for (std::size_t i = 0; i < request.chain.size(); ++i) {
    if (i != 0) out += ',';
    put_int(out, request.chain[i]);
  }
  out += "],\"expectation\":";
  io::dump_number_append(out, request.expectation);
  out += ",\"source\":";
  put_int(out, request.source);
  out += ",\"destination\":";
  put_int(out, request.destination);
  out += '}';
}

void encode_service(std::string& out, const Service& svc) {
  MECRA_CHECK_MSG(svc.id < (1ULL << 53),
                  "journal: service id too large to serialize");
  out += "{\"id\":";
  put_int(out, svc.id);
  out += ",\"request\":";
  encode_request(out, svc.request);
  out += ",\"state\":";
  put_int(out, static_cast<int>(svc.state));
  out += ",\"instances\":[";
  for (std::size_t i = 0; i < svc.instances.size(); ++i) {
    if (i != 0) out += ',';
    encode_instance(out, svc.instances[i]);
  }
  out += "]}";
}

Service service_from_json(const io::Json& json) {
  const io::JsonObject& o = json.as_object();
  Service svc;
  svc.id = static_cast<ServiceId>(o.at("id").as_int());
  svc.request = io::request_from_json(o.at("request"));
  svc.state = static_cast<ServiceState>(o.at("state").as_int());
  for (const io::Json& inst : o.at("instances").as_array()) {
    svc.instances.push_back(instance_from_json(inst));
  }
  return svc;
}

io::Json controller_state_to_json(const ControllerState& state) {
  io::JsonObject o;
  io::JsonArray tracked;
  tracked.reserve(state.tracked.size());
  for (const ControllerState::Entry& entry : state.tracked) {
    io::JsonObject e;
    e.set("service", io::Json(entry.service));
    e.set("dirty", io::Json(entry.dirty));
    e.set("not_before", io::Json(entry.not_before));
    e.set("backoff", io::Json(entry.backoff));
    tracked.push_back(io::Json(std::move(e)));
  }
  o.set("tracked", io::Json(std::move(tracked)));
  io::JsonArray repairs;
  repairs.reserve(state.repair_queue.size());
  for (const auto& [due, v] : state.repair_queue) {
    io::JsonArray pair;
    pair.reserve(2);
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

ControllerState controller_state_from_json(const io::Json& json) {
  const io::JsonObject& o = json.as_object();
  ControllerState state;
  for (const io::Json& entry : o.at("tracked").as_array()) {
    const io::JsonObject& e = entry.as_object();
    state.tracked.push_back(
        {static_cast<ServiceId>(e.at("service").as_int()),
         e.at("dirty").as_bool(), e.at("not_before").as_double(),
         e.at("backoff").as_double()});
  }
  for (const io::Json& pair : o.at("repair_queue").as_array()) {
    const io::JsonArray& p = pair.as_array();
    MECRA_CHECK(p.size() == 2);
    state.repair_queue.emplace_back(
        p[0].as_double(), static_cast<graph::NodeId>(p[1].as_int()));
  }
  state.next_batch = o.at("next_batch").as_double();
  state.last_now = o.at("last_now").as_double();
  const io::JsonObject& m = o.at("metrics").as_object();
  state.metrics.repairs = static_cast<std::size_t>(m.at("repairs").as_int());
  state.metrics.reaugment_attempts =
      static_cast<std::size_t>(m.at("reaugment_attempts").as_int());
  state.metrics.reaugment_successes =
      static_cast<std::size_t>(m.at("reaugment_successes").as_int());
  state.metrics.reaugment_failures =
      static_cast<std::size_t>(m.at("reaugment_failures").as_int());
  state.metrics.standbys_added =
      static_cast<std::size_t>(m.at("standbys_added").as_int());
  state.metrics.revivals = static_cast<std::size_t>(m.at("revivals").as_int());
  return state;
}

/// Post-event residuals of every cloudlet hosting an instance of the given
/// services, ascending node id, as [[node, residual], ...]. Replay
/// installs these verbatim (see the file comment on why the consume
/// arithmetic is not replayed).
void encode_touched_residuals(std::string& out,
                              const mec::MecNetwork& network,
                              const std::vector<const Service*>& services) {
  std::vector<graph::NodeId> nodes;
  for (const Service* svc : services) {
    for (const Instance& inst : svc->instances) nodes.push_back(inst.cloudlet);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  out += '[';
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out += ',';
    out += '[';
    put_int(out, nodes[i]);
    out += ',';
    io::dump_number_append(out, network.residual(nodes[i]));
    out += ']';
  }
  out += ']';
}

/// Applies a record's "residuals" array to the recovering orchestrator.
void apply_residuals(Orchestrator& orch, const io::Json& json) {
  for (const io::Json& pair : json.as_array()) {
    const io::JsonArray& p = pair.as_array();
    MECRA_CHECK(p.size() == 2);
    orch.restore_residual(static_cast<graph::NodeId>(p[0].as_int()),
                          p[1].as_double());
  }
}

void put_u32_le(char* out, std::uint32_t x) {
  out[0] = static_cast<char>(x & 0xffu);
  out[1] = static_cast<char>((x >> 8) & 0xffu);
  out[2] = static_cast<char>((x >> 16) & 0xffu);
  out[3] = static_cast<char>((x >> 24) & 0xffu);
}

std::uint32_t get_u32_le(const char* bytes) {
  const auto* b = reinterpret_cast<const unsigned char*>(bytes);
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

/// What a pass over a journal file found besides its records.
struct FrameSummary {
  std::uint64_t records = 0;
  bool torn_tail = false;
  std::uint64_t bytes_used = 0;
};

/// Reads the journal one frame at a time and hands each complete, checked
/// record to `visit` before reading the next, so at most one decoded
/// record is alive at once. Enforces the torn-tail and mid-file checksum
/// rules and the sequence chain (see scan_journal). A missing file reads
/// as an empty journal.
template <typename Visit>
FrameSummary for_each_record(const std::string& path, Visit&& visit) {
  FrameSummary summary;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return summary;  // absent file == empty journal
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::uint64_t pos = 0;
  std::string payload;
  while (pos < size) {
    char header[8];
    if (size - pos < 8) {
      summary.torn_tail = true;  // crash inside a frame header
      break;
    }
    in.read(header, sizeof header);
    const std::uint32_t len = get_u32_le(header);
    const std::uint32_t crc = get_u32_le(header + 4);
    if (size - pos - 8 < len) {
      summary.torn_tail = true;  // crash inside the payload
      break;
    }
    payload.resize(len);
    in.read(payload.data(), static_cast<std::streamsize>(len));
    MECRA_CHECK_MSG(in.good(), "journal: read failed on " + path);
    if (journal_crc32(payload) != crc) {
      // A bad checksum on the FINAL frame is a torn write (the length
      // header landed but the payload did not finish); anywhere else it is
      // silent corruption and must not be skipped over.
      MECRA_CHECK_MSG(
          pos + 8 + len == size,
          "journal corrupt: checksum mismatch mid-file at offset " +
              std::to_string(pos) + " of " + path);
      summary.torn_tail = true;
      break;
    }
    JournalRecord rec;
    rec.payload = io::Json::parse(payload);
    const io::JsonObject& obj = rec.payload.as_object();
    MECRA_CHECK_MSG(obj.at("v").as_int() == kJournalFormatVersion,
                    "journal: unsupported format version in " + path);
    rec.seq = static_cast<std::uint64_t>(obj.at("seq").as_int());
    rec.time = obj.at("t").as_double();
    rec.kind = obj.at("kind").as_string();
    MECRA_CHECK_MSG(rec.seq == summary.records,
                    "journal corrupt: sequence gap at offset " +
                        std::to_string(pos) + " of " + path);
    ++summary.records;
    pos += 8 + len;
    summary.bytes_used = pos;
    visit(std::move(rec));
  }
  return summary;
}

}  // namespace

std::uint32_t journal_crc32(std::string_view bytes) {
  static constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables =
      make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  // The word is assembled byte by byte (little-endian by construction), so
  // the result does not depend on the host's byte order.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Durability Durability::parse(std::string_view text) {
  if (text == "per_record") {
    return per_record();
  }
  if (text == "per_window") {
    return per_window();
  }
  constexpr std::string_view kBytesPrefix = "bytes:";
  if (text.size() > kBytesPrefix.size() &&
      text.substr(0, kBytesPrefix.size()) == kBytesPrefix) {
    const std::string digits(text.substr(kBytesPrefix.size()));
    const bool numeric =
        !digits.empty() &&
        digits.find_first_not_of("0123456789") == std::string::npos &&
        digits.size() <= 15;
    MECRA_CHECK_MSG(numeric, "durability: bad byte budget in '" +
                                 std::string(text) + "'");
    const unsigned long long budget = std::stoull(digits);
    MECRA_CHECK_MSG(budget > 0, "durability: byte budget must be positive");
    return bytes(static_cast<std::size_t>(budget));
  }
  MECRA_CHECK_MSG(false, "durability: expected per_record, per_window, or "
                         "bytes:<N>, got '" +
                             std::string(text) + "'");
}

std::string Durability::to_string() const {
  switch (policy) {
    case Policy::kPerRecord:
      return "per_record";
    case Policy::kPerGroup:
      return "per_window";
    case Policy::kBytes:
      return "bytes:" + std::to_string(byte_budget);
  }
  return "per_record";
}

Journal::Journal(std::string path, Mode mode, Durability durability)
    : path_(std::move(path)), durability_(durability) {
  if (mode == Mode::kContinue) {
    const FrameSummary scan = for_each_record(path_, [](JournalRecord&&) {});
    if (scan.torn_tail) {
      // Drop the half-written frame so the next append starts a clean one.
      std::filesystem::resize_file(path_, scan.bytes_used);
    }
    next_seq_ = scan.records;
    out_.open(path_, std::ios::binary | std::ios::app);
  } else {
    out_.open(path_, std::ios::binary | std::ios::trunc);
  }
  MECRA_CHECK_MSG(out_.is_open(), "journal: cannot open " + path_);
}

Journal::~Journal() {
  // Best effort: a pending group at destruction reaches the file like any
  // other flush, but failures (including an armed torn_write fault) are
  // swallowed — throwing from a destructor would terminate, and losing the
  // tail is exactly what the crash being simulated would do.
  try {
    flush_pending();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void Journal::set_durability(Durability durability) {
  flush_pending();
  durability_ = durability;
}

std::uint64_t Journal::append(std::string_view kind, double time,
                              std::string_view data) {
  MECRA_CHECK_MSG(!wedged_, "journal is wedged after a torn write");
  // The frame is assembled in place at the end of the pending group: a
  // placeholder header, the hand-written record envelope around `data`
  // (byte-identical to the JsonObject-wrapper dump, asserted in
  // tests/journal_test.cpp), then the real length and checksum. Frames are
  // self-delimiting, so one contiguous write of the group later is
  // byte-identical to writing each frame as it was appended.
  const std::size_t start = pending_.size();
  pending_.append(8, '\0');
  pending_ += "{\"v\":";
  io::dump_number_append(pending_, kJournalFormatVersion);
  pending_ += ",\"seq\":";
  io::dump_number_append(pending_, static_cast<double>(next_seq_));
  pending_ += ",\"t\":";
  io::dump_number_append(pending_, time);
  pending_ += ",\"kind\":";
  io::dump_string_append(pending_, kind);
  pending_ += ",\"data\":";
  pending_ += data;
  pending_ += '}';
  const std::size_t size = pending_.size() - start - 8;
  if (size >= 0xFFFFFFFFull) {
    pending_.resize(start);
    MECRA_CHECK_MSG(false, "journal: record too large to frame");
  }
  put_u32_le(&pending_[start], static_cast<std::uint32_t>(size));
  put_u32_le(&pending_[start + 4],
             journal_crc32(std::string_view(pending_).substr(start + 8)));
  pending_frames_.push_back(start);

  const std::uint64_t seq = next_seq_++;
  switch (durability_.policy) {
    case Durability::Policy::kPerRecord:
      flush_pending();
      break;
    case Durability::Policy::kBytes:
      if (pending_.size() >= durability_.byte_budget) {
        flush_pending();
      }
      break;
    case Durability::Policy::kPerGroup:
      break;  // waits for an explicit flush()
  }
  return seq;
}

void Journal::flush() { flush_pending(); }

void Journal::flush_pending() {
  if (pending_.empty()) {
    return;
  }
  MECRA_CHECK_MSG(!wedged_, "journal is wedged after a torn write");

  if (MECRA_FAULT_POINT("journal.torn_write")) {
    // Crash mid-write: persist every complete frame before the buffer
    // midpoint plus half the payload of the frame containing it, wedge the
    // journal, and raise. scan_journal classifies the leftover as a torn
    // tail; recovery resumes from the last complete record. For a
    // single-record group this is the historical header-plus-half-payload
    // cut.
    if (obs::enabled()) {
      static obs::Counter& injected =
          obs::MetricsRegistry::global().counter("fault.injected");
      injected.add(1);
    }
    const std::size_t mid = pending_.size() / 2;
    std::size_t torn = 0;
    while (torn + 1 < pending_frames_.size() &&
           pending_frames_[torn + 1] <= mid) {
      ++torn;
    }
    const std::size_t start = pending_frames_[torn];
    const std::size_t end = torn + 1 < pending_frames_.size()
                                ? pending_frames_[torn + 1]
                                : pending_.size();
    const std::size_t cut = start + 8 + (end - start - 8) / 2;
    out_.write(pending_.data(), static_cast<std::streamsize>(cut));
    out_.flush();
    wedged_ = true;
    pending_.clear();
    pending_frames_.clear();
    throw util::InjectedFault("journal.torn_write");
  }

  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  MECRA_CHECK_MSG(out_.good(), "journal: write failed on " + path_);
  pending_.clear();
  pending_frames_.clear();
}

void encode_snapshot_record(std::string& out, const Orchestrator& orch,
                            const Controller& controller) {
  out += "{\"network\":";
  io::to_json(orch.network()).dump_append(out);
  out += ",\"catalog\":";
  io::to_json(orch.catalog()).dump_append(out);
  out += ",\"services\":[";
  bool first = true;
  for (const ServiceId id : orch.services()) {
    if (!first) out += ',';
    first = false;
    encode_service(out, orch.service(id));
  }
  out += "],\"down\":[";
  first = true;
  for (const graph::NodeId v : orch.down_cloudlets()) {
    if (!first) out += ',';
    first = false;
    put_int(out, v);
  }
  out += "],\"next_service\":";
  put_int(out, orch.next_service_id());
  out += ",\"next_instance\":";
  put_int(out, orch.next_instance_id());
  out += ",\"has_shard_map\":";
  out += orch.has_shard_map() ? "true" : "false";
  out += ",\"controller\":";
  controller_state_to_json(controller.state()).dump_append(out);
  out += '}';
}

void encode_admit_record(std::string& out, const Orchestrator& orch,
                         const Service& svc) {
  out += "{\"service\":";
  encode_service(out, svc);
  out += ",\"residuals\":";
  encode_touched_residuals(out, orch.network(), {&svc});
  out += '}';
}

void encode_batch_record(std::string& out, const Orchestrator& orch,
                         const std::vector<const Service*>& admitted) {
  out += "{\"services\":[";
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    if (i != 0) out += ',';
    encode_service(out, *admitted[i]);
  }
  out += "],\"residuals\":";
  encode_touched_residuals(out, orch.network(), admitted);
  // Batches burn ids only for admitted requests, but recovery still resets
  // the counters explicitly so departed-then-crashed histories replay to
  // the same next ids.
  out += ",\"next_service\":";
  put_int(out, orch.next_service_id());
  out += ",\"next_instance\":";
  put_int(out, orch.next_instance_id());
  out += '}';
}

void encode_teardown_record(std::string& out, ServiceId service) {
  out += "{\"service\":";
  put_int(out, service);
  out += '}';
}

std::uint64_t Journal::snapshot(const Orchestrator& orch,
                                const Controller& controller, double time) {
  data_scratch_.clear();
  encode_snapshot_record(data_scratch_, orch, controller);
  return append(kJournalSnapshot, time, data_scratch_);
}

std::uint64_t Journal::admit(const Orchestrator& orch, const Service& svc,
                             double time) {
  data_scratch_.clear();
  encode_admit_record(data_scratch_, orch, svc);
  return append(kJournalAdmit, time, data_scratch_);
}

std::uint64_t Journal::batch_commit(
    const Orchestrator& orch, const std::vector<const Service*>& admitted,
    double time) {
  data_scratch_.clear();
  encode_batch_record(data_scratch_, orch, admitted);
  return append(kJournalBatch, time, data_scratch_);
}

std::uint64_t Journal::instance_failure(ServiceId service, InstanceId instance,
                                        double time) {
  data_scratch_.clear();
  data_scratch_ += "{\"service\":";
  put_int(data_scratch_, service);
  data_scratch_ += ",\"instance\":";
  put_int(data_scratch_, instance);
  data_scratch_ += '}';
  return append(kJournalInstanceFailure, time, data_scratch_);
}

std::uint64_t Journal::cloudlet_outage(graph::NodeId v, double time) {
  data_scratch_.clear();
  data_scratch_ += "{\"cloudlet\":";
  put_int(data_scratch_, v);
  data_scratch_ += '}';
  return append(kJournalCloudletOutage, time, data_scratch_);
}

std::uint64_t Journal::repair(graph::NodeId v, double time) {
  data_scratch_.clear();
  data_scratch_ += "{\"cloudlet\":";
  put_int(data_scratch_, v);
  data_scratch_ += '}';
  return append(kJournalRepair, time, data_scratch_);
}

std::uint64_t Journal::teardown(ServiceId service, double time) {
  data_scratch_.clear();
  encode_teardown_record(data_scratch_, service);
  return append(kJournalTeardown, time, data_scratch_);
}

std::uint64_t Journal::reconcile_mark(double time) {
  return append(kJournalReconcile, time, "{}");
}

JournalScan scan_journal(const std::string& path) {
  JournalScan scan;
  const FrameSummary summary = for_each_record(
      path, [&](JournalRecord&& rec) { scan.records.push_back(std::move(rec)); });
  scan.torn_tail = summary.torn_tail;
  scan.bytes_used = summary.bytes_used;
  return scan;
}

namespace {

/// Rebuilds the orchestrator + controller pair from a snapshot record,
/// replacing whatever an earlier snapshot and its tail had built.
void restore_snapshot(Recovered& out, const JournalRecord& snap,
                      const RecoverOptions& options) {
  const io::JsonObject& s = snap.data().as_object();
  out.controller.reset();  // holds a reference into the old orchestrator
  out.orch = std::make_unique<Orchestrator>(
      io::network_from_json(s.at("network")),
      io::catalog_from_json(s.at("catalog")), options.orchestrator);
  // Snapshot residuals already account for every installed instance, so
  // restores must not consume capacity a second time.
  for (const io::Json& svc : s.at("services").as_array()) {
    out.orch->restore_service(service_from_json(svc),
                              /*consume_capacity=*/false);
  }
  for (const io::Json& v : s.at("down").as_array()) {
    out.orch->restore_down_cloudlet(static_cast<graph::NodeId>(v.as_int()));
  }
  out.orch->set_id_counters(
      static_cast<ServiceId>(s.at("next_service").as_int()),
      static_cast<InstanceId>(s.at("next_instance").as_int()));
  if (s.at("has_shard_map").as_bool()) {
    // Reaugmentation candidate lists come from the shard map once it
    // exists; rebuild it so replayed reconciles see the same lists.
    out.orch->ensure_shard_map();
  }
  out.controller = std::make_unique<Controller>(*out.orch,
                                                options.controller);
  out.controller->restore(controller_state_from_json(s.at("controller")));
  out.replayed_events = 0;
  out.last_time = snap.time;
  out.last_seq = snap.seq;
}

/// Applies one event record on top of the restored state.
void replay_event(Recovered& out, const JournalRecord& rec) {
  const io::JsonObject& data = rec.data().as_object();
  if (rec.kind == kJournalAdmit) {
    Service svc = service_from_json(data.at("service"));
    const ServiceId id = svc.id;
    // Effect replay: the record carries the exact post-admit residuals,
    // so the restore must not consume on top of them.
    out.orch->restore_service(std::move(svc), /*consume_capacity=*/false);
    apply_residuals(*out.orch, data.at("residuals"));
    out.controller->on_admit(id, rec.time);
  } else if (rec.kind == kJournalBatch) {
    for (const io::Json& sj : data.at("services").as_array()) {
      Service svc = service_from_json(sj);
      const ServiceId id = svc.id;
      out.orch->restore_service(std::move(svc),
                                /*consume_capacity=*/false);
      out.controller->on_admit(id, rec.time);
    }
    apply_residuals(*out.orch, data.at("residuals"));
    out.orch->set_id_counters(
        static_cast<ServiceId>(data.at("next_service").as_int()),
        static_cast<InstanceId>(data.at("next_instance").as_int()));
    // A batch commit implies the live run had built the shard map.
    out.orch->ensure_shard_map();
  } else if (rec.kind == kJournalInstanceFailure) {
    const auto svc = static_cast<ServiceId>(data.at("service").as_int());
    (void)out.orch->fail_instance(
        svc, static_cast<InstanceId>(data.at("instance").as_int()));
    out.controller->on_instance_failed(svc, rec.time);
  } else if (rec.kind == kJournalCloudletOutage) {
    const auto v = static_cast<graph::NodeId>(data.at("cloudlet").as_int());
    out.orch->fail_cloudlet(v);
    out.controller->on_cloudlet_failed(v, rec.time);
  } else if (rec.kind == kJournalRepair) {
    out.orch->repair_cloudlet(
        static_cast<graph::NodeId>(data.at("cloudlet").as_int()));
  } else if (rec.kind == kJournalTeardown) {
    const auto svc = static_cast<ServiceId>(data.at("service").as_int());
    out.orch->teardown(svc);
    out.controller->on_teardown(svc);
  } else if (rec.kind == kJournalReconcile) {
    (void)out.controller->reconcile(rec.time);
  } else {
    MECRA_CHECK_MSG(false, "journal: unknown record kind " + rec.kind);
  }
  ++out.replayed_events;
  out.last_time = rec.time;
  out.last_seq = rec.seq;
}

}  // namespace

Recovered recover(const std::string& path, const RecoverOptions& options) {
  // One record at a time: each snapshot rebuilds the state from scratch
  // and the events after it apply on top, so the last snapshot wins while
  // only one decoded record is ever held in memory. Events before the
  // first snapshot have nothing to apply to and are skipped.
  Recovered out;
  const FrameSummary summary =
      for_each_record(path, [&](JournalRecord&& rec) {
        if (rec.kind == kJournalSnapshot) {
          restore_snapshot(out, rec, options);
        } else if (out.orch != nullptr) {
          replay_event(out, rec);
        }
      });
  MECRA_CHECK_MSG(summary.records > 0,
                  "journal recovery: no complete records in " + path);
  MECRA_CHECK_MSG(out.orch != nullptr,
                  "journal recovery: no snapshot record in " + path);
  out.torn_tail = summary.torn_tail;

  if (obs::enabled()) {
    static obs::Counter& replayed =
        obs::MetricsRegistry::global().counter("journal.replayed_events");
    replayed.add(out.replayed_events);
  }
  return out;
}

}  // namespace mecra::orchestrator

// Low-overhead scoped-event tracing for the whole stack.
//
// The tracer records named spans onto two timelines:
//  * kWall — real (steady-clock) time of host-side work: compiler phases,
//    offload orchestration, communication management;
//  * kSim  — the virtual platform's simulated time: kernel executions and
//    transfers as scheduled by sim::SimClock, so the trace shows the same
//    overlap the cost model computed.
// Events land in a lock-sharded ring buffer (shard per recording thread
// hash), so concurrent kernel workers never contend on one mutex, and a
// full buffer overwrites the oldest events instead of growing.
//
// Export formats:
//  * Chrome-trace JSON ("trace event format"), loadable in chrome://tracing
//    or https://ui.perfetto.dev — sim devices appear as one row per GPU;
//  * a plain-text summary table (span count + total time per category),
//    which is what bench_fig8_breakdown cross-checks against the runtime's
//    counters.
//
// Everything is a no-op while the tracer is disabled (one relaxed atomic
// load per potential span), so instrumentation stays in release builds.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace accmg::trace {

/// Which clock a span's timestamps belong to.
enum class Timeline : std::uint8_t {
  kWall = 0,  ///< host steady-clock microseconds since tracing started
  kSim = 1,   ///< simulated microseconds (sim::SimClock seconds * 1e6)
};

/// Span categories used by the built-in instrumentation. Free-form strings
/// are allowed; these constants name the phases of the paper's Fig. 8.
namespace category {
inline constexpr char kKernel[] = "kernel";          ///< GPU kernel execution
inline constexpr char kTransfer[] = "transfer";      ///< plain H2D/D2H loads & gathers
inline constexpr char kDirtyMerge[] = "dirty-merge"; ///< two-level dirty-bit propagation
inline constexpr char kMissFlush[] = "miss-flush";   ///< write-miss buffer replay
inline constexpr char kHalo[] = "halo";              ///< halo refresh from owners
inline constexpr char kReduction[] = "reduction";    ///< inter-GPU reduction combine
inline constexpr char kOffload[] = "offload";        ///< one BSP offload step (wall)
inline constexpr char kLoader[] = "loader";          ///< data placement work (wall)
inline constexpr char kCompile[] = "compile";        ///< compiler phases (wall)
inline constexpr char kHost[] = "host";              ///< host interpreter work (wall)
}  // namespace category

/// One completed span.
struct Event {
  std::string name;
  std::string category;
  Timeline timeline = Timeline::kWall;
  int device = -1;             ///< simulated device id; -1 = host
  int job = -1;                ///< service job id; -1 = not part of a job
  double start_us = 0;         ///< on the event's timeline
  double duration_us = 0;
  std::uint64_t thread_id = 0; ///< recording thread (wall timeline rows)
};

/// Aggregated view of one (timeline, category) cell of the summary.
struct CategorySummary {
  Timeline timeline = Timeline::kWall;
  std::string category;
  std::uint64_t count = 0;
  double total_us = 0;
};

class Tracer {
 public:
  /// The process-wide tracer every instrumentation site records into.
  static Tracer& Global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled);

  /// Ring capacity per shard (default 1 << 14 events). Takes effect on the
  /// next Clear(); call Clear() after changing it.
  void set_shard_capacity(std::size_t events);
  std::size_t shard_capacity() const { return shard_capacity_; }

  /// Drops all recorded events and resets the drop counter (keeps enabled).
  void Clear();

  /// Records a completed span. No-op while disabled.
  void Record(Event event);

  /// Events overwritten because a shard's ring wrapped around.
  std::uint64_t dropped() const;

  /// Merged copy of every retained event, sorted by (timeline, start).
  std::vector<Event> Snapshot() const;

  /// Per-(timeline, category) aggregation of the retained events, sorted by
  /// descending total time within each timeline.
  std::vector<CategorySummary> Summarize() const;

  /// Chrome trace event format. Sim-timeline events render under a "sim"
  /// process with one thread row per GPU; wall-timeline events under a
  /// "wall" process with one row per recording thread. `job_filter >= 0`
  /// keeps only the spans recorded under that JobScope (the service's
  /// per-job trace export); -1 exports everything.
  void WriteChromeTrace(std::ostream& os, int job_filter = -1) const;

  /// WriteChromeTrace into `path`; returns false if the file can't open.
  bool WriteChromeTraceFile(const std::string& path,
                            int job_filter = -1) const;

  /// The summary as a fixed-width text table.
  std::string SummaryTable() const;

  /// Microseconds elapsed on the wall timeline (process-wide epoch).
  static double WallNowMicros();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Event> ring;
    std::size_t next = 0;        ///< ring insertion cursor
    std::uint64_t recorded = 0;  ///< total events ever recorded
  };
  static constexpr std::size_t kNumShards = 8;

  Shard& ShardForThisThread();

  std::atomic<bool> enabled_{false};
  std::size_t shard_capacity_ = 1 << 14;
  std::array<Shard, kNumShards> shards_;
};

/// RAII wall-clock span: records name/category/device on destruction when
/// the tracer was enabled at construction.
class Span {
 public:
  Span(std::string name, std::string cat, int device = -1);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  std::string name_;
  std::string category_;
  int device_;
  double start_us_ = 0;
};

/// Thread-local phase label. The sim platform reads it to attribute the
/// cost-only transfers it schedules (Bill*) to the runtime phase that
/// issued them — dirty-bit merge vs write-miss flush vs halo refresh vs
/// reduction — instead of a generic "transfer". Scopes nest; the innermost
/// wins.
class PhaseScope {
 public:
  explicit PhaseScope(const char* phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Innermost active phase on this thread, or nullptr.
  static const char* Current();

 private:
  const char* previous_;
};

/// Thread-local job label, the service-mode analogue of PhaseScope: every
/// event recorded on this thread while a scope with id >= 0 is active is
/// stamped with that job id, so one ring buffer can hold interleaved spans
/// of concurrent jobs and WriteChromeTrace(os, job) can split them apart
/// again. Scopes nest; the innermost non-negative id wins. Fan-out code
/// that records spans on other threads must re-establish the scope there.
class JobScope {
 public:
  explicit JobScope(int job);
  ~JobScope();

  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

  /// Innermost active job id on this thread, or -1.
  static int Current();

 private:
  int previous_;
};

/// Escapes `text` for inclusion inside a JSON string literal.
std::string JsonEscape(const std::string& text);

}  // namespace accmg::trace

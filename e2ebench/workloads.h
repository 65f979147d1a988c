// The four workloads of the end-to-end benchmark. Each owns its generated
// inputs, its oracles (the generator's expected COs and reports, or
// client-side models of every acknowledged write), and the durable database
// it runs against. The harness in main.cc times Setup, Op and Reopen from
// outside; everything a workload checks is computed apart from the engine.
#ifndef XNFBENCH_WORKLOADS_H_
#define XNFBENCH_WORKLOADS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/session.h"
#include "tracer.h"
#include "xnf/cache.h"

namespace xnfbench {

class Workload {
 public:
  // Counts the workload measures at its own calls (per-layer metrics).
  struct Counts {
    std::atomic<int64_t> rows_out{0};      // result rows + CO tuples returned
    std::atomic<int64_t> rows_written{0};  // acknowledged base-row writes
    std::atomic<int64_t> co_tuples{0};     // tuples of extracted COs
    std::atomic<int64_t> nav_steps{0};     // tuples + connections walked
  };

  virtual ~Workload();

  virtual int clients() const = 0;
  virtual int dop() const = 0;
  // Percentile reported as op_tail_us, and the number of equal windows the
  // timed phase is cut into (figures are medians over windows).
  virtual double tail_percentile() const = 0;
  virtual int windows() const { return 20; }
  // Operations run after the final checkpoint and before the timed reopen.
  virtual int further_ops() const = 0;
  // Operations of the timed phase after which peak_rss_mb is read: about
  // half of what the workload completes in 20 s here. Some memory grows with
  // every operation (co_edit's heap keeps the slots of deleted tuples), so a
  // reading at the end of a fixed-length phase would grow with throughput.
  virtual int64_t memory_ops() const = 0;
  virtual int warmup_ops() const = 0;
  // Rows loaded at setup.
  virtual int64_t rows() const = 0;

  // Creates the durable database at `dir` (which must not exist), loads it
  // through multi-row INSERT, builds indexes, checkpoints and warms up.
  xnf::Status Setup(const std::string& dir);
  // Untimed work a client does before its next operation (co_edit checks
  // out its next working set here).
  virtual xnf::Status Prepare(int /*client*/) { return xnf::Status::Ok(); }
  // One operation of client `client` (0 <= client < clients()). An engine
  // error is returned; a wrong answer is recorded with Mismatch().
  virtual xnf::Status Op(int client) = 0;
  // One of the operations run after the final checkpoint, whose writes the
  // timed reopen replays from the WAL. The same as Prepare + Op unless a
  // workload says otherwise.
  virtual xnf::Status FurtherOp(int client);
  // Checks the database against the workload's oracles through SQL.
  virtual xnf::Status Verify() = 0;
  // Destroys the database without a checkpoint (a crash, as far as the WAL
  // is concerned) and reopens it from `dir`; the reopen is what recover_s
  // times.
  void Close();
  xnf::Status Reopen(const std::string& dir);

  xnf::Database* db() { return db_.get(); }
  // Self-test hook: falsifies one expectation of the workload's oracle, so
  // that the next operations or Verify() must report a mismatch.
  virtual void CorruptOracle() = 0;
  // Installs `tracer` as the engine's trace sink and as the recorder of the
  // workload's own spans; null turns both off.
  void set_tracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

  // MVCC versions still retained (sqlxnf_transactions); must be 0 when no
  // transaction is open.
  xnf::Result<int64_t> VersionsRetained();

  bool correct() const { return mismatches_.load() == 0; }
  std::string first_mismatch() const;
  // Records a wrong answer.
  void Mismatch(const std::string& what);
  // Names the phase (timed run, verify after reopen, ...) that mismatch
  // messages are reported under. Set only while no client runs.
  void set_phase(std::string phase) { phase_ = std::move(phase); }

  Counts counts;

 protected:
  Workload() = default;
  virtual xnf::Database::Options DbOptions() const;
  // Schema, inserts and index DDL, in order.
  virtual std::vector<std::string> LoadStatements() const = 0;
  // Hooks around the database's lifetime (open sessions, check out a CO).
  virtual xnf::Status AfterOpen() { return xnf::Status::Ok(); }
  virtual void BeforeClose() {}

  // Executes one statement on `session` (null = the default session) inside
  // a "call" span.
  xnf::Result<xnf::ExecResult> Exec(xnf::Session* session,
                                    const std::string& sql);
  // Extracts a CO into a cache. Untraced this is Database::OpenCo. Traced,
  // it is Execute of the same XNF query followed by CoCache::Build:
  // OpenCo/QueryCo do not hand the installed trace sink to the evaluator,
  // so only the statement path yields the phase spans.
  xnf::Result<std::unique_ptr<xnf::co::CoCache>> Checkout(
      const std::string& xnf_query);

  std::unique_ptr<xnf::Database> db_;
  Tracer* tracer_ = nullptr;

 private:
  std::atomic<int64_t> mismatches_{0};
  mutable std::mutex mismatch_mu_;
  std::string first_mismatch_;
  std::string phase_;
};

// Known workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
// Null for an unknown name. `small` builds a tiny instance (self-tests).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small);

}  // namespace xnfbench

#endif  // XNFBENCH_WORKLOADS_H_

// Seeded input generation for the end-to-end benchmark, and the oracles the
// workloads check the engine against. Everything here is computed from the
// generated rows alone — breadth-first reachability, per-configuration sums,
// report aggregates — never from the engine's output.
#ifndef XNFBENCH_GENERATOR_H_
#define XNFBENCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xnfbench {

// splitmix64: deterministic across platforms and standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

// --- CAD working sets (co_checkout, co_edit) ------------------------------
//
// asm(aid PK, cfg, is_root, name, version, weight)
// uses(parent, child, qty)          -- part-uses-part link table, cyclic
// doc(did PK, aid, cfg, pages)      -- foreign key doc.aid -> asm.aid
//
// Every configuration has the same shape: `roots` root assemblies, the rest
// spread over `levels` levels, each non-root non-orphan assembly used by one
// assembly of the previous level, plus `back_edges` extra uses that close
// cycles, plus `orphans` assemblies nobody reachable uses (each uses one
// reachable assembly, so the evaluator must discard edges out of them).
// Documents hang off random assemblies of their configuration, including
// roots and orphans, whose documents fall out of the CO.
struct CadShape {
  int configs = 256;
  int asms_per_config = 64;
  int roots = 2;
  int levels = 5;
  int orphans = 4;
  int back_edges = 12;
  int docs_per_config = 80;
};

struct Asm {
  int64_t aid, cfg, is_root, version, weight;
};
struct Use {
  int64_t parent, child, qty;
};
struct Doc {
  int64_t did, aid, cfg, pages;
};

// The expected content of one configuration's CO (CadCoQuery), computed by
// breadth-first search over the generated uses rows.
struct WorkingSet {
  int64_t roots = 0;      // tuples of node r
  int64_t asms = 0;       // tuples of node a (reachable non-roots)
  int64_t docs = 0;       // tuples of node d
  int64_t top = 0;        // connections r -> a
  int64_t sub = 0;        // connections a -> a
  int64_t doc_links = 0;  // connections a -> d
  int64_t weight_sum = 0;  // SUM(a.weight)
  int64_t version_sum = 0;  // SUM(a.version) at generation time
  int64_t pages_sum = 0;   // SUM(d.pages)
  int64_t qty_sum = 0;     // SUM(sub.qty)
  int64_t path_docs = 0;   // sum over roots of |root.top->a->docs->d|
  std::vector<int64_t> reachable;  // aids of node a, ascending
};

struct CadData {
  CadShape shape;
  std::vector<Asm> asms;  // aid order
  std::vector<Use> uses;
  std::vector<Doc> docs;  // did order
  std::vector<WorkingSet> expected;  // per configuration

  int64_t rows() const {
    return static_cast<int64_t>(asms.size() + uses.size() + docs.size());
  }
};

CadData GenerateCad(const CadShape& shape, uint64_t seed);

// Breadth-first recomputation of one configuration's expected CO.
WorkingSet ExpectedWorkingSet(const CadData& data, int64_t cfg);

// Brute-force recount of the same quantities: reachability by fixpoint
// iteration over all uses rows (no adjacency lists, no queue). The
// benchmark's self-test compares it with ExpectedWorkingSet.
WorkingSet BruteForceWorkingSet(const CadData& data, int64_t cfg);

// The XNF query that checks out configuration `cfg`.
std::string CadCoQuery(int64_t cfg);

// Schema DDL and index DDL for the CAD tables.
std::vector<std::string> CadSchema();
std::vector<std::string> CadIndexes();
// Multi-row INSERT statements, `batch` rows each.
std::vector<std::string> CadInserts(const CadData& data, int batch);

// --- Columnar analytics (analytic) ------------------------------------------
//
// fact(fid, cfg, prod, qty, price, flag) USING column CLUSTER BY cfg
// prod(pid, cat, cost)                   USING column
struct FactShape {
  int facts = 24000;
  int products = 2000;
  int categories = 16;
  int configs = 64;
};

struct Fact {
  int64_t fid, cfg, prod, qty, price, flag;
};
struct Product {
  int64_t pid, cat, cost;
};

// One report's parameters and its expected answer.
struct Report {
  int64_t price_below = 0;  // scan-filter: price < X AND flag = 1
  int64_t cfg_below = 0;    // join-aggregate: fact.cfg < X
  int64_t co_cat = 0;       // CO: products of this category ...
  int64_t co_cfg_lo = 0;    // ... and their facts with cfg in [lo, hi)
  int64_t co_cfg_hi = 0;

  // Expected answers.
  int64_t scan_count = 0;
  int64_t scan_qty = 0;
  std::vector<int64_t> group_count;  // per category (0 = no group row)
  std::vector<int64_t> group_qty;
  int64_t co_products = 0;
  int64_t co_facts = 0;
  int64_t co_links = 0;
  int64_t co_qty = 0;
};

struct FactData {
  FactShape shape;
  std::vector<Fact> facts;
  std::vector<Product> products;
  std::vector<Report> reports;

  int64_t rows() const {
    return static_cast<int64_t>(facts.size() + products.size());
  }
};

FactData GenerateFacts(const FactShape& shape, uint64_t seed, int reports);

std::vector<std::string> FactSchema();
std::vector<std::string> FactInserts(const FactData& data, int batch);
std::string ScanQuery(const Report& r);
std::string JoinAggregateQuery(const Report& r);
std::string FactCoQuery(const Report& r);

// --- Accounts (sql_sessions) ---------------------------------------------
//
// owner(oid PK, name, tier)
// acct(id PK, owner, balance, region)
// hist(hid PK, acct, delta)
struct AccountShape {
  int sessions = 3;
  int accounts_per_session = 4000;
  int owners = 2000;
  int history_per_session = 2000;
};

struct AccountData {
  AccountShape shape;
  std::vector<int64_t> owner_tier;  // by oid
  std::vector<int64_t> acct_owner;  // by id
  std::vector<int64_t> balance;     // by id
  // hist rows: hid -> (acct, delta); session s owns hids
  // [s * 1e9, s * 1e9 + history_per_session) initially.
  struct Hist {
    int64_t hid, acct, delta;
  };
  std::vector<Hist> hist;

  int64_t rows() const {
    return static_cast<int64_t>(owner_tier.size() + balance.size() +
                                hist.size());
  }
};

constexpr int64_t kHistStride = 1000000000;

AccountData GenerateAccounts(const AccountShape& shape, uint64_t seed);
std::vector<std::string> AccountSchema();
std::vector<std::string> AccountInserts(const AccountData& data, int batch);

}  // namespace xnfbench

#endif  // XNFBENCH_GENERATOR_H_

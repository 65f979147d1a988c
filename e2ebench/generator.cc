#include "generator.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <set>
#include <utility>

namespace xnfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::string Int(int64_t v) { return std::to_string(v); }

// printf-style rendering of one row's values.
template <typename... Args>
std::string Format(const char* format, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// Appends "INSERT INTO <table> VALUES (...), ..." statements of `batch` rows;
// `row(i)` renders row i without parentheses.
template <typename RowFn>
void AppendInserts(const std::string& table, size_t n, int batch, RowFn row,
                   std::vector<std::string>* out) {
  for (size_t start = 0; start < n; start += static_cast<size_t>(batch)) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    size_t end = std::min(n, start + static_cast<size_t>(batch));
    for (size_t i = start; i < end; ++i) {
      sql += i > start ? ", (" : "(";
      sql += row(i);
      sql += ')';
    }
    out->push_back(std::move(sql));
  }
}

}  // namespace

// --- CAD working sets -------------------------------------------------------

CadData GenerateCad(const CadShape& shape, uint64_t seed) {
  CadData data;
  data.shape = shape;
  Rng rng(seed);
  const int a = shape.asms_per_config;
  const int first_level = shape.roots + shape.orphans;
  const int leveled = a - first_level;
  for (int64_t cfg = 0; cfg < shape.configs; ++cfg) {
    const int64_t base = cfg * a + 1;
    // level[i]: 0 = root, -1 = orphan, 1..levels otherwise.
    std::vector<int> level(a);
    std::vector<std::vector<int>> by_level(shape.levels + 1);
    for (int i = 0; i < a; ++i) {
      if (i < shape.roots) {
        level[i] = 0;
      } else if (i < first_level) {
        level[i] = -1;
      } else {
        level[i] = 1 + (i - first_level) * shape.levels / leveled;
      }
      if (level[i] >= 0) by_level[level[i]].push_back(i);
      data.asms.push_back(
          {base + i, cfg, i < shape.roots ? 1 : 0, 1, 1 + rng.Below(100)});
    }
    std::set<std::pair<int, int>> edges;
    auto add = [&](int parent, int child) {
      if (parent == child || !edges.insert({parent, child}).second) {
        return false;
      }
      data.uses.push_back({base + parent, base + child, 1 + rng.Below(9)});
      return true;
    };
    // Tree edges: every leveled assembly is used by one of the level above.
    for (int i = first_level; i < a; ++i) {
      const std::vector<int>& above = by_level[level[i] - 1];
      add(above[rng.Below(static_cast<int64_t>(above.size()))], i);
    }
    // Back and cross edges among leveled assemblies: the parent sits at the
    // same or a deeper level than the child, closing cycles.
    for (int added = 0; added < shape.back_edges;) {
      int child = first_level + static_cast<int>(rng.Below(leveled));
      int parent = first_level + static_cast<int>(rng.Below(leveled));
      if (level[parent] >= level[child] && add(parent, child)) ++added;
    }
    // Orphans use one leveled assembly each but are used by nobody.
    for (int i = shape.roots; i < first_level; ++i) {
      while (!add(i, first_level + static_cast<int>(rng.Below(leveled)))) {
      }
    }
    for (int k = 0; k < shape.docs_per_config; ++k) {
      data.docs.push_back({cfg * shape.docs_per_config + k + 1,
                           base + rng.Below(a), cfg, 1 + rng.Below(50)});
    }
  }
  for (int64_t cfg = 0; cfg < shape.configs; ++cfg) {
    data.expected.push_back(ExpectedWorkingSet(data, cfg));
  }
  return data;
}

namespace {

// Sums shared by both recounts once the reachable set is known.
WorkingSet Tally(const CadData& data, int64_t cfg,
                 const std::vector<char>& reach) {
  const int64_t a = data.shape.asms_per_config;
  const int64_t base = cfg * a + 1;
  auto in_cfg = [&](int64_t aid) { return aid >= base && aid < base + a; };
  auto reached = [&](int64_t aid) { return reach[aid - base] != 0; };
  WorkingSet ws;
  for (int64_t i = 0; i < a; ++i) {
    const Asm& row = data.asms[base - 1 + i];
    if (row.is_root) ++ws.roots;
    if (reach[i]) {
      ws.reachable.push_back(row.aid);
      ++ws.asms;
      ws.weight_sum += row.weight;
      ws.version_sum += row.version;
    }
  }
  std::vector<int64_t> docs_of(a, 0);
  for (const Doc& d : data.docs) {
    if (d.cfg != cfg) continue;
    ++docs_of[d.aid - base];
    if (reached(d.aid)) {
      ++ws.docs;
      ++ws.doc_links;
      ws.pages_sum += d.pages;
    }
  }
  for (const Use& u : data.uses) {
    if (!in_cfg(u.parent)) continue;
    if (data.asms[u.parent - 1].is_root) {
      ++ws.top;
      ws.path_docs += docs_of[u.child - base];
    } else if (reached(u.parent)) {
      ++ws.sub;
      ws.qty_sum += u.qty;
    }
  }
  return ws;
}

}  // namespace

WorkingSet ExpectedWorkingSet(const CadData& data, int64_t cfg) {
  const int64_t a = data.shape.asms_per_config;
  const int64_t base = cfg * a + 1;
  std::vector<std::vector<int64_t>> children(a);
  for (const Use& u : data.uses) {
    if (u.parent >= base && u.parent < base + a) {
      children[u.parent - base].push_back(u.child - base);
    }
  }
  std::vector<char> reach(a, 0);
  std::deque<int64_t> queue;
  for (int64_t i = 0; i < a; ++i) {
    if (!data.asms[base - 1 + i].is_root) continue;
    for (int64_t c : children[i]) {
      if (!reach[c]) {
        reach[c] = 1;
        queue.push_back(c);
      }
    }
  }
  while (!queue.empty()) {
    int64_t p = queue.front();
    queue.pop_front();
    for (int64_t c : children[p]) {
      if (!reach[c]) {
        reach[c] = 1;
        queue.push_back(c);
      }
    }
  }
  return Tally(data, cfg, reach);
}

WorkingSet BruteForceWorkingSet(const CadData& data, int64_t cfg) {
  const int64_t a = data.shape.asms_per_config;
  const int64_t base = cfg * a + 1;
  std::vector<char> reach(a, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (const Use& u : data.uses) {
      if (u.parent < base || u.parent >= base + a) continue;
      bool from = data.asms[u.parent - 1].is_root || reach[u.parent - base];
      if (from && !reach[u.child - base]) {
        reach[u.child - base] = 1;
        changed = true;
      }
    }
  }
  return Tally(data, cfg, reach);
}

std::string CadCoQuery(int64_t cfg) {
  std::string k = Int(cfg);
  return "OUT OF "
         "r AS (SELECT * FROM asm WHERE cfg = " + k + " AND is_root = 1), "
         "a AS (SELECT * FROM asm WHERE cfg = " + k + "), "
         "d AS (SELECT * FROM doc WHERE cfg = " + k + "), "
         "top AS (RELATE r, a USING uses u "
         "WHERE r.aid = u.parent AND a.aid = u.child), "
         "sub AS (RELATE a p, a c WITH ATTRIBUTES u2.qty USING uses u2 "
         "WHERE p.aid = u2.parent AND c.aid = u2.child), "
         "docs AS (RELATE a, d WHERE a.aid = d.aid) "
         "TAKE *";
}

std::vector<std::string> CadSchema() {
  return {
      "CREATE TABLE asm (aid INT PRIMARY KEY, cfg INT, is_root INT, "
      "name VARCHAR, version INT, weight INT)",
      "CREATE TABLE uses (parent INT, child INT, qty INT)",
      "CREATE TABLE doc (did INT PRIMARY KEY, aid INT, cfg INT, pages INT)",
  };
}

std::vector<std::string> CadIndexes() {
  return {
      "CREATE INDEX asm_cfg ON asm (cfg)",
      "CREATE INDEX uses_parent ON uses (parent)",
      "CREATE INDEX uses_child ON uses (child)",
      "CREATE INDEX doc_cfg ON doc (cfg)",
      "CREATE INDEX doc_aid ON doc (aid)",
  };
}

std::vector<std::string> CadInserts(const CadData& data, int batch) {
  std::vector<std::string> out;
  AppendInserts("asm", data.asms.size(), batch, [&](size_t i) {
    const Asm& r = data.asms[i];
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64 ", 'a%" PRId64
                  "', %" PRId64 ", %" PRId64,
                  r.aid, r.cfg, r.is_root, r.aid, r.version, r.weight);
  }, &out);
  AppendInserts("uses", data.uses.size(), batch, [&](size_t i) {
    const Use& r = data.uses[i];
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64, r.parent, r.child,
                  r.qty);
  }, &out);
  AppendInserts("doc", data.docs.size(), batch, [&](size_t i) {
    const Doc& r = data.docs[i];
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64, r.did,
                  r.aid, r.cfg, r.pages);
  }, &out);
  return out;
}

// --- Columnar analytics -------------------------------------------------------

namespace {

// Fills in `report`'s expected answers from the rows.
void ComputeReport(const FactData& data, Report* r) {
  const int k = data.shape.categories;
  r->group_count.assign(k, 0);
  r->group_qty.assign(k, 0);
  for (const Product& p : data.products) {
    if (p.cat == r->co_cat) ++r->co_products;
  }
  for (const Fact& f : data.facts) {
    if (f.price < r->price_below && f.flag == 1) {
      ++r->scan_count;
      r->scan_qty += f.qty;
    }
    const int64_t cat = data.products[f.prod - 1].cat;
    if (f.cfg < r->cfg_below) {
      ++r->group_count[cat];
      r->group_qty[cat] += f.qty;
    }
    if (cat == r->co_cat && f.cfg >= r->co_cfg_lo && f.cfg < r->co_cfg_hi) {
      ++r->co_facts;
      ++r->co_links;
      r->co_qty += f.qty;
    }
  }
}

}  // namespace

FactData GenerateFacts(const FactShape& shape, uint64_t seed, int reports) {
  FactData data;
  data.shape = shape;
  Rng rng(seed);
  for (int64_t pid = 1; pid <= shape.products; ++pid) {
    data.products.push_back(
        {pid, rng.Below(shape.categories), 1 + rng.Below(500)});
  }
  for (int64_t fid = 1; fid <= shape.facts; ++fid) {
    data.facts.push_back({fid, rng.Below(shape.configs),
                          1 + rng.Below(shape.products), 1 + rng.Below(20),
                          1 + rng.Below(1000), rng.Below(4) == 0 ? 1 : 0});
  }
  for (int i = 0; i < reports; ++i) {
    Report r;
    r.price_below = 50 + rng.Below(150);
    r.cfg_below = shape.configs / 4 + rng.Below(shape.configs / 4);
    r.co_cat = rng.Below(shape.categories);
    r.co_cfg_lo = rng.Below(shape.configs - shape.configs / 8);
    r.co_cfg_hi = r.co_cfg_lo + shape.configs / 8;
    ComputeReport(data, &r);
    data.reports.push_back(std::move(r));
  }
  return data;
}

std::vector<std::string> FactSchema() {
  return {
      "CREATE TABLE fact (fid INT, cfg INT, prod INT, qty INT, price INT, "
      "flag INT) USING column CLUSTER BY cfg",
      "CREATE TABLE prod (pid INT, cat INT, cost INT) USING column",
  };
}

std::vector<std::string> FactInserts(const FactData& data, int batch) {
  std::vector<std::string> out;
  AppendInserts("prod", data.products.size(), batch, [&](size_t i) {
    const Product& p = data.products[i];
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64, p.pid, p.cat, p.cost);
  }, &out);
  AppendInserts("fact", data.facts.size(), batch, [&](size_t i) {
    const Fact& f = data.facts[i];
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
                  ", %" PRId64 ", %" PRId64,
                  f.fid, f.cfg, f.prod, f.qty, f.price, f.flag);
  }, &out);
  return out;
}

std::string ScanQuery(const Report& r) {
  return "SELECT COUNT(*), SUM(qty) FROM fact WHERE price < " +
         Int(r.price_below) + " AND flag = 1";
}

std::string JoinAggregateQuery(const Report& r) {
  return "SELECT p.cat, COUNT(*), SUM(f.qty) FROM fact f JOIN prod p "
         "ON f.prod = p.pid WHERE f.cfg < " + Int(r.cfg_below) +
         " GROUP BY p.cat";
}

std::string FactCoQuery(const Report& r) {
  return "OUT OF p AS (SELECT * FROM prod WHERE cat = " + Int(r.co_cat) +
         "), f AS (SELECT * FROM fact WHERE cfg >= " + Int(r.co_cfg_lo) +
         " AND cfg < " + Int(r.co_cfg_hi) +
         "), sold AS (RELATE p, f WHERE p.pid = f.prod) "
         "TAKE p(pid), f(fid, qty), sold";
}

// --- Accounts ----------------------------------------------------------------

AccountData GenerateAccounts(const AccountShape& shape, uint64_t seed) {
  AccountData data;
  data.shape = shape;
  Rng rng(seed);
  data.owner_tier.push_back(0);  // oids start at 1
  for (int i = 1; i <= shape.owners; ++i) {
    data.owner_tier.push_back(1 + rng.Below(5));
  }
  const int64_t n = static_cast<int64_t>(shape.sessions) *
                    shape.accounts_per_session;
  data.acct_owner.push_back(0);  // ids start at 1
  data.balance.push_back(0);
  for (int64_t id = 1; id <= n; ++id) {
    data.acct_owner.push_back(1 + rng.Below(shape.owners));
    data.balance.push_back(rng.Below(10000));
  }
  for (int s = 0; s < shape.sessions; ++s) {
    const int64_t lo = static_cast<int64_t>(s) * shape.accounts_per_session;
    for (int k = 0; k < shape.history_per_session; ++k) {
      data.hist.push_back({s * kHistStride + k,
                           lo + 1 + rng.Below(shape.accounts_per_session),
                           rng.Below(200) - 100});
    }
  }
  return data;
}

std::vector<std::string> AccountSchema() {
  return {
      "CREATE TABLE owner (oid INT PRIMARY KEY, name VARCHAR, tier INT)",
      "CREATE TABLE acct (id INT PRIMARY KEY, owner INT, balance INT, "
      "region INT)",
      "CREATE TABLE hist (hid INT PRIMARY KEY, acct INT, delta INT)",
  };
}

std::vector<std::string> AccountInserts(const AccountData& data, int batch) {
  std::vector<std::string> out;
  AppendInserts("owner", data.owner_tier.size() - 1, batch, [&](size_t i) {
    const int64_t oid = static_cast<int64_t>(i) + 1;
    return Format("%" PRId64 ", 'o%" PRId64 "', %" PRId64, oid, oid,
                  data.owner_tier[oid]);
  }, &out);
  AppendInserts("acct", data.balance.size() - 1, batch, [&](size_t i) {
    const int64_t id = static_cast<int64_t>(i) + 1;
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64, id,
                  data.acct_owner[id], data.balance[id], id % 8);
  }, &out);
  AppendInserts("hist", data.hist.size(), batch, [&](size_t i) {
    const AccountData::Hist& h = data.hist[i];
    return Format("%" PRId64 ", %" PRId64 ", %" PRId64, h.hid, h.acct,
                  h.delta);
  }, &out);
  return out;
}

}  // namespace xnfbench

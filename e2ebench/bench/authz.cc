// authz_mixed: per-request authorization against a preloaded file ACL.
//
// Server state: ~2k users in 50 groups, ~2k files, group permissions and
// file owners, deriving ~84k access(u,f,m) tuples. Requests arrive as
// text: fully bound access probes (Prepare + Exists), single-fact grant
// commits (delta fixpoint) and rare membership revocations (retraction,
// full rebuild). The generator replays the same mutations on a plain C++
// model of the policy, so every probe carries its expected verdict.
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "datalog/relation.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace e2ebench {
namespace {

using lbtrust::datalog::Tuple;
using lbtrust::datalog::Value;
using lbtrust::trust::TrustRuntime;

constexpr size_t kUsers = 2000;
constexpr size_t kGroups = 50;
constexpr size_t kFiles = 2000;
constexpr size_t kPermsPerGroup = 26;
constexpr size_t kModes = 3;
const char* const kModeNames[kModes] = {"read", "write", "exec"};

// Per pass (one freshly set-up server): ~90% probes, ~10% grants, and a
// few revocations. The op multiset is fixed; only its order and keys
// depend on the seed. The shares and the skew are assumptions with no
// published source (README "Traffic-mix assumptions").
constexpr size_t kOpsPerPass = 20000;
constexpr size_t kGrantsPerPass = 2000;
constexpr size_t kRevokesPerPass = 2;
constexpr double kZipfS = 0.9;

constexpr const char* kPolicy =
    "access(U,F,M) <- member(U,G), gperm(G,F,M).\n"
    "access(U,F,M) <- uperm(U,F,M).\n"
    "access(U,F,M) <- owner(F,U), mode(M).\n";

std::string UserName(size_t u) { return lbtrust::util::StrCat("u", u); }
std::string GroupName(size_t g) { return lbtrust::util::StrCat("g", g); }
std::string FileName(size_t f) { return lbtrust::util::StrCat("f", f); }

/// Key (f, m) packed for set membership.
size_t PermKey(size_t f, size_t m) { return f * kModes + m; }

/// The policy evaluated directly: the generator's source of expected
/// verdicts.
struct Model {
  std::vector<std::set<size_t>> groups_of;   // user -> groups
  std::vector<std::vector<size_t>> perms;    // group -> PermKey list
  std::vector<std::set<size_t>> perm_set;    // group -> PermKey set
  std::vector<size_t> owner;                 // file -> user
  std::set<std::pair<size_t, size_t>> uperm; // (user, PermKey)

  bool Allowed(size_t u, size_t f, size_t m) const {
    if (owner[f] == u) return true;
    size_t key = PermKey(f, m);
    if (uperm.count({u, key})) return true;
    for (size_t g : groups_of[u]) {
      if (perm_set[g].count(key)) return true;
    }
    return false;
  }
};

struct Request {
  Op op;
  std::string text;  ///< the request as it arrives
  bool expected;     ///< probes only
};

class AuthzMixed : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng rng(seed ^ 0xa11ce5eedULL);
    base_ = Model();
    base_.groups_of.resize(kUsers);
    base_.perms.resize(kGroups);
    base_.perm_set.resize(kGroups);
    base_.owner.resize(kFiles);
    for (size_t u = 0; u < kUsers; ++u) {
      size_t n = 1 + rng.Below(2);
      while (base_.groups_of[u].size() < n) {
        base_.groups_of[u].insert(rng.Below(kGroups));
      }
    }
    for (size_t g = 0; g < kGroups; ++g) {
      while (base_.perm_set[g].size() < kPermsPerGroup) {
        size_t key = PermKey(rng.Below(kFiles), rng.Below(kModes));
        if (base_.perm_set[g].insert(key).second) base_.perms[g].push_back(key);
      }
    }
    for (size_t f = 0; f < kFiles; ++f) base_.owner[f] = rng.Below(kUsers);

    std::vector<Op> ops(kOpsPerPass, Op::kProbe);
    for (size_t i = 0; i < kGrantsPerPass; ++i) ops[i] = Op::kGrant;
    for (size_t i = 0; i < kRevokesPerPass; ++i) {
      ops[kGrantsPerPass + i] = Op::kRevoke;
    }
    rng.Shuffle(&ops);

    Zipf zipf(kUsers, kZipfS, &rng);
    Model model = base_;
    requests_.clear();
    requests_.reserve(kOpsPerPass);
    allowed_ = 0;
    probes_ = 0;
    repeats_ = 0;
    request_bytes_ = 0;
    std::set<std::string> seen;
    std::vector<size_t> user_hits(kUsers, 0);
    for (Op op : ops) {
      Request req{op, "", false};
      if (op == Op::kProbe) {
        size_t u = zipf.Sample(&rng);
        ++user_hits[u];
        size_t f = rng.Below(kFiles);
        size_t m = rng.Below(kModes);
        if (rng.Below(2) == 0 && !model.groups_of[u].empty()) {
          // Aim at a permission the user holds through one of its groups.
          auto it = model.groups_of[u].begin();
          std::advance(it, rng.Below(model.groups_of[u].size()));
          size_t key = model.perms[*it][rng.Below(kPermsPerGroup)];
          f = key / kModes;
          m = key % kModes;
        }
        req.expected = model.Allowed(u, f, m);
        req.text = lbtrust::util::StrCat("access(", UserName(u), ",",
                                         FileName(f), ",", kModeNames[m], ")");
        allowed_ += req.expected ? 1 : 0;
        repeats_ += seen.insert(req.text).second ? 0 : 1;
        ++probes_;
      } else if (op == Op::kGrant) {
        size_t u = rng.Below(kUsers);
        size_t f = rng.Below(kFiles);
        size_t m = rng.Below(kModes);
        model.uperm.insert({u, PermKey(f, m)});
        req.text = lbtrust::util::StrCat("uperm(", UserName(u), ",",
                                         FileName(f), ",", kModeNames[m],
                                         ").");
      } else {
        size_t u = rng.Below(kUsers);
        while (model.groups_of[u].empty()) u = rng.Below(kUsers);
        auto it = model.groups_of[u].begin();
        std::advance(it, rng.Below(model.groups_of[u].size()));
        size_t g = *it;
        model.groups_of[u].erase(it);
        req.text = lbtrust::util::StrCat("member(", UserName(u), ",",
                                         GroupName(g), ")");
      }
      request_bytes_ += req.text.size();
      requests_.push_back(std::move(req));
    }
    // Share of probes that go to the hottest 1% of users.
    std::sort(user_hits.rbegin(), user_hits.rend());
    size_t top = 0;
    for (size_t i = 0; i < kUsers / 100; ++i) top += user_hits[i];
    top_user_share_ = probes_ ? static_cast<double>(top) / probes_ : 0;
  }

  std::string InputBytes() const override {
    std::string out;
    for (size_t u = 0; u < kUsers; ++u) {
      for (size_t g : base_.groups_of[u]) {
        out += lbtrust::util::StrCat("member ", u, " ", g, "\n");
      }
    }
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t key : base_.perms[g]) {
        out += lbtrust::util::StrCat("gperm ", g, " ", key, "\n");
      }
    }
    for (size_t f = 0; f < kFiles; ++f) {
      out += lbtrust::util::StrCat("owner ", f, " ", base_.owner[f], "\n");
    }
    for (const Request& r : requests_) {
      out += lbtrust::util::StrCat(OpName(r.op), " ", r.text, " ",
                                   r.expected ? 1 : 0, "\n");
    }
    return out;
  }

  std::map<std::string, double> InputProperties() const override {
    size_t memberships = 0;
    for (const auto& gs : base_.groups_of) memberships += gs.size();
    return {{"users", kUsers},
            {"groups", kGroups},
            {"files", kFiles},
            {"memberships", static_cast<double>(memberships)},
            {"ops_per_pass", kOpsPerPass},
            {"grant_share", static_cast<double>(kGrantsPerPass) / kOpsPerPass},
            {"revokes_per_pass", kRevokesPerPass},
            {"repeat_share",
             probes_ ? static_cast<double>(repeats_) / probes_ : 0},
            {"allowed_share",
             probes_ ? static_cast<double>(allowed_) / probes_ : 0},
            {"mean_request_bytes",
             static_cast<double>(request_bytes_) / kOpsPerPass},
            {"zipf_s", kZipfS},
            {"top1pct_user_probe_share", top_user_share_},
            {"access_rows_at_setup", static_cast<double>(access_rows_)}};
  }

  std::string Setup() override {
    rt_.reset();
    TrustRuntime::Options options;
    options.principal = "server";
    auto rt = TrustRuntime::Create(options);
    if (!rt.ok()) return rt.status().ToString();
    rt_ = std::move(*rt);
    if (auto st = rt_->Load(kPolicy); !st.ok()) return st.ToString();
    lbtrust::datalog::Transaction txn = rt_->Begin();
    for (size_t m = 0; m < kModes; ++m) {
      txn.AddFact("mode", {Value::Sym(kModeNames[m])});
    }
    for (size_t u = 0; u < kUsers; ++u) {
      for (size_t g : base_.groups_of[u]) {
        txn.AddFact("member", {Value::Sym(UserName(u)), Value::Sym(GroupName(g))});
      }
    }
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t key : base_.perms[g]) {
        txn.AddFact("gperm", {Value::Sym(GroupName(g)),
                              Value::Sym(FileName(key / kModes)),
                              Value::Sym(kModeNames[key % kModes])});
      }
    }
    for (size_t f = 0; f < kFiles; ++f) {
      txn.AddFact("owner", {Value::Sym(FileName(f)),
                            Value::Sym(UserName(base_.owner[f]))});
    }
    if (auto st = txn.Commit(); !st.ok()) return st.ToString();
    const auto* access = rt_->workspace()->GetRelation("access");
    access_rows_ = access != nullptr ? access->size() : 0;
    return "";
  }

  void RunPass(Recorder* rec, LayerTrace* trace, PassState* state) override {
    lbtrust::datalog::Workspace* ws = rt_->workspace();
    const auto* active = ws->GetRelation("active");
    size_t active_start = active ? active->size() : 0;
    int delta0 = ws->delta_eval_rounds();
    int full0 = ws->full_eval_rounds();
    for (const Request& req : requests_) {
      uint64_t t0 = NowNs();
      std::string why;
      switch (req.op) {
        case Op::kProbe: {
          bool verdict = false;
          {
            Scoped span(trace, Layer::kRequest, "req.probe");
            why = Probe(rt_.get(), req.text, trace, &verdict);
          }
          state->verdicts += verdict ? '1' : '0';
          if (why.empty() && verdict != req.expected) {
            why = lbtrust::util::StrCat("wrong verdict for ", req.text);
          }
          break;
        }
        case Op::kGrant: {
          Scoped span(trace, Layer::kRequest, "req.grant");
          lbtrust::datalog::Transaction txn = rt_->Begin();
          txn.AddFactText(req.text);
          lbtrust::util::Status st = Commit(&txn, ws, trace);
          if (!st.ok()) why = st.ToString();
          break;
        }
        case Op::kRevoke: {
          Scoped span(trace, Layer::kRequest, "req.revoke");
          lbtrust::datalog::Transaction txn = rt_->Begin();
          txn.RemoveFact("member", ParseFactArgs(req.text));
          lbtrust::util::Status st = Commit(&txn, ws, trace);
          if (!st.ok()) why = st.ToString();
          break;
        }
        default:
          why = "unexpected op";
      }
      rec->Record(req.op, NowNs() - t0, why.empty(), why);
    }
    const auto* access = ws->GetRelation("access");
    active = ws->GetRelation("active");
    state->counters["access_rows"] = access ? access->size() : 0;
    state->counters["active_rows"] = active ? active->size() : 0;
    int delta = ws->delta_eval_rounds() - delta0;
    int full = ws->full_eval_rounds() - full0;
    state->counters["delta_rounds"] = delta;
    state->counters["full_rounds"] = full;
    layer_counters_ = {
        {"datalog.fixpoint_delta_ratio",
         delta + full > 0 ? static_cast<double>(delta) / (delta + full) : 0},
        {"datalog.active_rows_start", static_cast<double>(active_start)},
        {"datalog.active_rows_end", active ? static_cast<double>(active->size()) : 0},
        {"datalog.codegen_rounds", static_cast<double>(ws->last_codegen_rounds())}};
  }

  size_t ThroughputUnitsPerPass() const override { return kOpsPerPass; }
  std::map<std::string, double> LayerCounters() const override {
    return layer_counters_;
  }

 private:
  /// "member(u1,g2)" -> {u1, g2} as symbols.
  static Tuple ParseFactArgs(const std::string& text) {
    Tuple out;
    size_t open = text.find('(');
    size_t pos = open + 1;
    while (pos < text.size()) {
      size_t end = text.find_first_of(",)", pos);
      out.push_back(Value::Sym(text.substr(pos, end - pos)));
      if (text[end] == ')') break;
      pos = end + 1;
    }
    return out;
  }

  Model base_;
  std::vector<Request> requests_;
  size_t allowed_ = 0;
  size_t probes_ = 0;
  size_t repeats_ = 0;  ///< probes whose key an earlier probe already asked
  size_t request_bytes_ = 0;
  double top_user_share_ = 0;
  size_t access_rows_ = 0;
  std::unique_ptr<TrustRuntime> rt_;
  std::map<std::string, double> layer_counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeAuthzMixed() { return std::make_unique<AuthzMixed>(); }

}  // namespace e2ebench

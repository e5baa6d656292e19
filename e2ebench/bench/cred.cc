// cred_import: credential bundles arriving as wire frames.
//
// Each request is one net::Frame (kCredential) in bytes carrying a 4-link
// credential chain signed (RSA-1024) by one of four registered issuers.
// The server decodes the frame, imports the bundle
// (TrustRuntime::ImportCredentials) and probes the verdict the chain
// grants. Every pass starts from the same base of imported bundles; most
// requests re-present a base bundle (verification-cache hits, content
// dedup, no new facts), the rest carry bundles the server has never seen
// (cold RSA verifies, new activated rules).
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "cred/credential.h"
#include "cred/importer.h"
#include "datalog/ast.h"
#include "datalog/lint.h"
#include "datalog/parser.h"
#include "datalog/relation.h"
#include "net/frame.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace e2ebench {
namespace {

using lbtrust::cred::Credential;
using lbtrust::datalog::Value;
using lbtrust::trust::TrustRuntime;

// The repeat/fresh split, the skew and the base size are assumptions with
// no published source (README "Traffic-mix assumptions").
constexpr size_t kIssuers = 4;
constexpr size_t kChainLength = 4;
constexpr size_t kBaseBundles = 100;    // base: 400 credentials per pass
constexpr size_t kOpsPerPass = 250;
constexpr size_t kFreshPerPass = 25;    // 10% of requests
constexpr double kZipfS = 0.9;
constexpr size_t kMaxFrameBytes = 1 << 20;

constexpr const char* kPolicy = "access(S,R) <- grant(S,R).\n";

std::string IssuerName(size_t i) { return lbtrust::util::StrCat("issuer", i); }

/// One issued chain: frame bytes plus the (subject, resource) it grants.
struct Bundle {
  size_t issuer;
  std::string subject;
  std::string resource;
  std::string bundle;  ///< cred::SerializeBundle output (root first)
};

struct Request {
  Op op;
  size_t bundle;          ///< index into base_ or fresh_
  std::string frame;      ///< EncodeFrame bytes as received
  std::string probe;      ///< access(subject, resource) pattern
  bool expected;
};

class CredImport : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng rng(seed ^ 0xc4ed5eedULL);
    issuers_.clear();
    for (size_t i = 0; i < kIssuers; ++i) {
      auto kp = TrustRuntime::DeriveKeyPair(IssuerName(i), rng.Next() | 1, 1024);
      if (!kp.ok()) Fail("issuer key: " + kp.status().ToString());
      issuers_.push_back(std::move(*kp));
    }
    base_.clear();
    fresh_.clear();
    for (size_t b = 0; b < kBaseBundles; ++b) base_.push_back(Issue(&rng, b % kIssuers));
    for (size_t b = 0; b < kFreshPerPass; ++b) fresh_.push_back(Issue(&rng, b % kIssuers));

    std::vector<Op> ops(kOpsPerPass, Op::kImportRepeat);
    for (size_t i = 0; i < kFreshPerPass; ++i) ops[i] = Op::kImportFresh;
    rng.Shuffle(&ops);
    Zipf zipf(kBaseBundles, kZipfS, &rng);
    requests_.clear();
    size_t next_fresh = 0;
    uint64_t seq = 0;
    allowed_ = 0;
    frame_bytes_ = 0;
    std::vector<size_t> hits(kBaseBundles, 0);
    for (Op op : ops) {
      Request req;
      req.op = op;
      if (op == Op::kImportFresh) {
        req.bundle = next_fresh++;
      } else {
        req.bundle = zipf.Sample(&rng);
        ++hits[req.bundle];
      }
      const Bundle& b = op == Op::kImportFresh ? fresh_[req.bundle] : base_[req.bundle];
      lbtrust::net::Frame frame;
      frame.kind = lbtrust::net::Frame::Kind::kCredential;
      frame.seq = ++seq;
      frame.from = IssuerName(b.issuer);
      frame.payload = b.bundle;
      req.frame = lbtrust::net::EncodeFrame(frame);
      frame_bytes_ += req.frame.size();
      // Half the probes ask for the resource the chain grants; the rest
      // for another bundle's resource, which this subject never holds.
      req.expected = rng.Below(2) == 0;
      const std::string& resource =
          req.expected ? b.resource : base_[(req.bundle + 1 + rng.Below(kBaseBundles - 1)) % kBaseBundles].resource;
      if (!req.expected && resource == b.resource) Fail("resource collision");
      req.probe = lbtrust::util::StrCat("access(", b.subject, ",", resource, ")");
      allowed_ += req.expected ? 1 : 0;
      requests_.push_back(std::move(req));
    }
    std::sort(hits.rbegin(), hits.rend());
    size_t repeats = kOpsPerPass - kFreshPerPass;
    top_share_ = static_cast<double>(hits[0]) / repeats;
  }

  std::string InputBytes() const override {
    std::string out;
    for (const Bundle& b : base_) out += "base " + b.bundle + "\n";
    for (const Request& r : requests_) {
      out += lbtrust::util::StrCat(OpName(r.op), " ", r.probe, " ",
                                   r.expected ? 1 : 0, " ", r.frame, "\n");
    }
    return out;
  }

  std::map<std::string, double> InputProperties() const override {
    return {{"issuers", kIssuers},
            {"chain_length", kChainLength},
            {"base_bundles", kBaseBundles},
            {"base_credentials", kBaseBundles * kChainLength},
            {"ops_per_pass", kOpsPerPass},
            {"fresh_per_pass", kFreshPerPass},
            {"repeat_share",
             static_cast<double>(kOpsPerPass - kFreshPerPass) / kOpsPerPass},
            {"allowed_share", static_cast<double>(allowed_) / kOpsPerPass},
            {"zipf_s", kZipfS},
            {"hottest_bundle_repeat_share", top_share_},
            {"mean_frame_bytes", static_cast<double>(frame_bytes_) / kOpsPerPass},
            {"active_rows_at_setup", static_cast<double>(active_at_setup_)}};
  }

  std::string Setup() override {
    rt_.reset();
    TrustRuntime::Options options;
    options.principal = "server";
    auto rt = TrustRuntime::Create(options);
    if (!rt.ok()) return rt.status().ToString();
    rt_ = std::move(*rt);
    for (size_t i = 0; i < kIssuers; ++i) {
      if (auto st = rt_->AddPeer(IssuerName(i), issuers_[i].public_key); !st.ok()) {
        return st.ToString();
      }
      fingerprints_[IssuerName(i)] = lbtrust::crypto::KeyFingerprint(issuers_[i].public_key);
    }
    if (auto st = rt_->Load(kPolicy); !st.ok()) return st.ToString();
    for (const Bundle& b : base_) {
      auto imported = rt_->ImportCredentials(b.bundle);
      if (!imported.ok()) return imported.status().ToString();
    }
    if (auto st = rt_->Fixpoint(); !st.ok()) return st.ToString();
    active_at_setup_ = ActiveRows();
    return "";
  }

  void RunPass(Recorder* rec, LayerTrace* trace, PassState* state) override {
    lbtrust::cred::CredentialStore* store = rt_->credentials();
    lbtrust::datalog::Workspace* ws = rt_->workspace();
    lbtrust::net::FrameParser parser(kMaxFrameBytes);
    const auto stats0 = store->stats();
    const int delta0 = ws->delta_eval_rounds();
    const int full0 = ws->full_eval_rounds();
    const size_t active_start = ActiveRows();
    for (const Request& req : requests_) {
      const size_t rsa_before = store->stats().rsa_verifies;
      uint64_t t0 = NowNs();
      std::string why;
      bool verdict = false;
      {
        Scoped span(trace, Layer::kRequest,
                    req.op == Op::kImportFresh ? "req.import_fresh" : "req.import_repeat");
        why = trace == nullptr ? Import(req, &parser) : TracedImport(req, &parser, trace);
        if (why.empty()) why = Probe(rt_.get(), req.probe, trace, &verdict);
      }
      uint64_t ns = NowNs() - t0;
      state->verdicts += verdict ? '1' : '0';
      const size_t rsa = store->stats().rsa_verifies - rsa_before;
      const size_t want_rsa = req.op == Op::kImportFresh ? kChainLength : 0;
      if (why.empty() && verdict != req.expected) {
        why = "wrong verdict for " + req.probe;
      } else if (why.empty() && rsa != want_rsa) {
        why = lbtrust::util::StrCat(rsa, " RSA verifies, expected ", want_rsa);
      }
      rec->Record(req.op, ns, why.empty(), why);
    }
    const auto& stats = store->stats();
    size_t rsa = stats.rsa_verifies - stats0.rsa_verifies;
    size_t hits = stats.verify_cache_hits - stats0.verify_cache_hits;
    int delta = ws->delta_eval_rounds() - delta0;
    int full = ws->full_eval_rounds() - full0;
    state->counters = {{"store_size", static_cast<double>(store->size())},
                       {"puts", static_cast<double>(stats.puts)},
                       {"dedup_hits", static_cast<double>(stats.dedup_hits)},
                       {"rsa_verifies", static_cast<double>(rsa)},
                       {"verify_cache_hits", static_cast<double>(hits)},
                       {"active_rows", static_cast<double>(ActiveRows())},
                       {"delta_rounds", static_cast<double>(delta)},
                       {"full_rounds", static_cast<double>(full)}};
    layer_counters_ = {
        {"datalog.fixpoint_delta_ratio",
         delta + full > 0 ? static_cast<double>(delta) / (delta + full) : 0},
        {"datalog.active_rows_start", static_cast<double>(active_start)},
        {"datalog.active_rows_end", static_cast<double>(ActiveRows())},
        {"datalog.codegen_rounds", static_cast<double>(ws->last_codegen_rounds())},
        {"cred.verify_cache_hit_ratio",
         rsa + hits > 0 ? static_cast<double>(hits) / (rsa + hits) : 0},
        {"cred.rsa_verifies", static_cast<double>(rsa)},
        {"trust.rsa_signs", static_cast<double>(rt_->crypto_stats().rsa_signs)},
        {"trust.rsa_verifies", static_cast<double>(rt_->crypto_stats().rsa_verifies)}};
  }

  size_t ThroughputUnitsPerPass() const override { return kOpsPerPass; }
  std::map<std::string, double> LayerCounters() const override {
    return layer_counters_;
  }

 private:
  [[noreturn]] static void Fail(const std::string& why) {
    std::fprintf(stderr, "cred_import input generation: %s\n", why.c_str());
    std::exit(2);
  }

  /// Issues a fresh 4-link chain: lvl0 fact, two forwarding rules, and the
  /// root rule granting (subject, resource); each links to the previous.
  Bundle Issue(Rng* rng, size_t issuer) {
    Bundle b;
    b.issuer = issuer;
    std::string tag = lbtrust::util::StrCat(rng->Next() & 0xffffffffffULL);
    b.subject = "s" + tag;
    b.resource = "r" + tag;
    std::string args = b.subject + "," + b.resource;
    const std::string payloads[kChainLength] = {
        "lvl0(" + args + ").",
        "lvl1(" + args + ") <- lvl0(" + args + ").",
        "lvl2(" + args + ") <- lvl1(" + args + ").",
        "grant(" + args + ") <- lvl2(" + args + ")."};
    std::vector<Credential> chain;
    std::string link;
    for (const std::string& payload : payloads) {
      Credential c;
      c.issuer = IssuerName(issuer);
      c.key_fingerprint = lbtrust::crypto::KeyFingerprint(issuers_[issuer].public_key);
      if (!link.empty()) c.links = {link};
      c.payload = payload;
      if (auto st = lbtrust::cred::SignCredential(&c, issuers_[issuer].private_key);
          !st.ok()) {
        Fail(st.ToString());
      }
      link = lbtrust::cred::CredentialHash(c);
      chain.push_back(std::move(c));
    }
    std::reverse(chain.begin(), chain.end());  // root first
    b.bundle = lbtrust::cred::SerializeBundle(chain);
    return b;
  }

  size_t ActiveRows() const {
    const auto* active = rt_->workspace()->GetRelation("active");
    return active != nullptr ? active->size() : 0;
  }

  /// Decodes the request frame into `frame`; "" on success.
  static std::string Decode(const Request& req, lbtrust::net::FrameParser* parser,
                            lbtrust::net::Frame* frame) {
    if (!parser->Append(req.frame)) return "frame rejected: " + parser->error();
    auto next = parser->Next();
    if (!next.ok()) return next.status().ToString();
    if (!next->has_value()) return "incomplete frame";
    *frame = std::move(**next);
    if (frame->kind != lbtrust::net::Frame::Kind::kCredential) return "not a credential frame";
    return "";
  }

  /// The production path: frame decode + TrustRuntime::ImportCredentials.
  std::string Import(const Request& req, lbtrust::net::FrameParser* parser) {
    lbtrust::net::Frame frame;
    if (std::string err = Decode(req, parser, &frame); !err.empty()) return err;
    auto imported = rt_->ImportCredentials(frame.payload);
    if (!imported.ok()) return imported.status().ToString();
    if (imported->credentials != kChainLength) return "short closure";
    return "";
  }

  /// The same import driven as the sequence of public calls that
  /// TrustRuntime::ImportCredentials and cred::ImportCredentialSet make,
  /// in the same order, each inside its layer's span. This is a replica of
  /// those two functions (src/trust/trust_runtime.cc, src/cred/importer.cc):
  /// it must be changed whenever either of them changes, or the per-layer
  /// split stops describing the path the untraced run times. RunTraced
  /// checks that both paths leave the same verdicts, store counters and
  /// `active` rows, but not that they cost the same.
  std::string TracedImport(const Request& req, lbtrust::net::FrameParser* parser,
                           LayerTrace* trace) {
    lbtrust::cred::CredentialStore* store = rt_->credentials();
    lbtrust::datalog::Workspace* ws = rt_->workspace();
    lbtrust::net::Frame frame;
    {
      Scoped span(trace, Layer::kFrameDecode);
      if (std::string err = Decode(req, parser, &frame); !err.empty()) return err;
    }
    // TrustRuntime::ImportCredentials: parse, stage new members.
    Scoped parse_span(trace, Layer::kParseBundle);
    auto credentials = lbtrust::cred::ParseBundle(frame.payload);
    parse_span.Close();
    if (!credentials.ok()) return credentials.status().ToString();
    if (credentials->empty()) return "empty credential bundle";
    std::string root;
    std::vector<std::string> staged;
    for (Credential& c : *credentials) {
      Scoped hash_span(trace, Layer::kHash);
      std::string hash = lbtrust::cred::CredentialHash(c);
      hash_span.Close();
      Scoped stage(trace, Layer::kStage);
      if (!store->Contains(hash)) {
        store->InsertForReplication(hash, std::move(c));
        staged.push_back(hash);
      }
      if (root.empty()) root = std::move(hash);
    }
    lbtrust::cred::KeyResolver resolver =
        [this](const std::string& issuer,
               const std::string& fingerprint) -> const lbtrust::crypto::RsaPublicKey* {
      auto bound = fingerprints_.find(issuer);
      if (bound == fingerprints_.end() || bound->second != fingerprint) return nullptr;
      return rt_->keystore()->FindPublicByFingerprint(fingerprint);
    };
    auto fail = [&](std::string why) {
      for (const std::string& h : staged) store->Erase(h);
      return why;
    };
    // cred::ImportCredentialSet: closure, then per member verify, parse,
    // lint and stage; one Commit.
    Scoped closure_span(trace, Layer::kStage);
    auto closure = store->ResolveClosure(root);
    closure_span.Close();
    if (!closure.ok()) return fail(closure.status().ToString());
    lbtrust::datalog::Transaction txn = ws->Begin();
    size_t members = 0;
    for (const std::string& hash : *closure) {
      const Credential* c = store->Get(hash);
      if (!c->ValidAt(0)) {
        txn.Abort();
        return fail("credential outside validity");
      }
      const lbtrust::crypto::RsaPublicKey* key = resolver(c->issuer, c->key_fingerprint);
      if (key == nullptr) {
        txn.Abort();
        return fail("no key binding for " + c->issuer);
      }
      const size_t rsa_before = store->stats().rsa_verifies;
      Scoped verify(trace, Layer::kVerifyCold);
      auto verified = store->VerifySignature(hash, *key);
      verify.Close(store->stats().rsa_verifies > rsa_before ? Layer::kVerifyCold
                                                            : Layer::kVerifyCached);
      if (!verified.ok()) return fail(verified.status().ToString());
      if (!*verified) {
        txn.Abort();
        return fail("bad signature on " + hash);
      }
      Scoped parse(trace, Layer::kParse);
      auto parsed = lbtrust::datalog::ParseProgram(c->payload);
      parse.Close();
      if (!parsed.ok()) {
        txn.Abort();
        return fail(parsed.status().ToString());
      }
      {
        Scoped lint_span(trace, Layer::kLint);
        lbtrust::datalog::LintOptions opts;
        opts.builtins = ws->builtins();
        opts.says_check = true;
        opts.says_principal = c->issuer;
        if (lbtrust::datalog::LintProgram(c->payload, c->issuer, opts).has_errors()) {
          txn.Abort();
          return fail("lint rejected " + hash);
        }
      }
      Scoped stage(trace, Layer::kTxnStage);
      for (lbtrust::datalog::ParsedClause& clause : *parsed) {
        if (clause.kind == lbtrust::datalog::ParsedClause::Kind::kConstraint) {
          txn.Abort();
          return fail("constraint in payload");
        }
        for (lbtrust::datalog::Rule& rule : clause.rules) {
          txn.AddFact("says", {Value::Sym(c->issuer), Value::Sym(ws->principal()),
                               Value::CodeRule(std::make_shared<const lbtrust::datalog::Rule>(
                                   std::move(rule)))});
        }
      }
      ++members;
    }
    if (auto st = Commit(&txn, ws, trace); !st.ok()) return fail(st.ToString());
    // TrustRuntime::ImportCredentials: drop staged members outside the
    // root's closure, re-resolved after the commit.
    {
      Scoped stage(trace, Layer::kStage);
      auto kept = store->ResolveClosure(root);
      if (kept.ok()) {
        std::set<std::string> keep(kept->begin(), kept->end());
        for (const std::string& h : staged) {
          if (keep.count(h) == 0) store->Erase(h);
        }
      }
    }
    if (members != kChainLength) return "short closure";
    return "";
  }

  std::vector<lbtrust::crypto::RsaKeyPair> issuers_;
  std::map<std::string, std::string> fingerprints_;
  std::vector<Bundle> base_;
  std::vector<Bundle> fresh_;
  std::vector<Request> requests_;
  size_t allowed_ = 0;
  size_t frame_bytes_ = 0;
  double top_share_ = 0;
  size_t active_at_setup_ = 0;
  std::unique_ptr<TrustRuntime> rt_;
  std::map<std::string, double> layer_counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeCredImport() { return std::make_unique<CredImport>(); }

}  // namespace e2ebench

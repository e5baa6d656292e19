// binder_exchange: the paper's Fig. 2 exchange as a closed loop.
//
// Two principals on a simulated net::Cluster with the RSA scheme. Each
// request commits one msg fact at alice; her policy exports it to bob
// through `says`, signed inside alice's fixpoint (rsasign), shipped by
// Cluster::Run, verified at bob (rsaverify) and activated there by codegen
// as a ping fact. Bob then answers two verdict probes: the delivered
// message (present) and a message never sent (absent).
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "datalog/relation.h"
#include "net/cluster.h"
#include "util/strings.h"

namespace e2ebench {
namespace {

using lbtrust::datalog::Value;
using lbtrust::net::Cluster;
using lbtrust::trust::TrustRuntime;

constexpr size_t kMessagesPerPass = 200;

constexpr const char* kAlicePolicy = "says(me,bob,[| ping(N). |]) <- msg(N).";

struct Message {
  std::string token;   ///< the msg value alice commits
  std::string probe;   ///< bob's probe for it
  std::string absent;  ///< bob's probe for a message never sent
};

class BinderExchange : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng rng(seed ^ 0xb1d3e5eedULL);
    messages_.clear();
    for (size_t i = 0; i < kMessagesPerPass; ++i) {
      Message m;
      uint64_t tag = rng.Next();
      m.token = lbtrust::util::StrCat("m", i, "_", tag & 0xffffffffffULL);
      m.probe = lbtrust::util::StrCat("ping(\"", m.token, "\")");
      m.absent = lbtrust::util::StrCat("ping(\"x", i, "_", tag >> 24, "\")");
      messages_.push_back(std::move(m));
    }
  }

  std::string InputBytes() const override {
    std::string out;
    for (const Message& m : messages_) {
      out += m.token + " " + m.probe + " " + m.absent + "\n";
    }
    return out;
  }

  std::map<std::string, double> InputProperties() const override {
    size_t bytes = 0;
    for (const Message& m : messages_) bytes += m.token.size();
    return {{"messages_per_pass", kMessagesPerPass},
            {"repeat_share", 0},
            {"allowed_share", 0.5},
            {"mean_token_bytes", static_cast<double>(bytes) / kMessagesPerPass},
            {"rsa_bits", 1024}};
  }

  std::string Setup() override {
    cluster_.reset();
    Cluster::Options copts;
    copts.scheme = "rsa";
    copts.max_rounds = 16;
    cluster_ = std::make_unique<Cluster>(copts);
    auto alice = cluster_->AddNode("alice");
    if (!alice.ok()) return alice.status().ToString();
    auto bob = cluster_->AddNode("bob");
    if (!bob.ok()) return bob.status().ToString();
    alice_ = *alice;
    bob_ = *bob;
    if (auto st = cluster_->Connect(); !st.ok()) return st.ToString();
    if (auto st = alice_->Load(kAlicePolicy); !st.ok()) return st.ToString();
    auto first = cluster_->Run();
    if (!first.ok()) return first.status().ToString();
    return "";
  }

  void RunPass(Recorder* rec, LayerTrace* trace, PassState* state) override {
    lbtrust::datalog::Workspace* alice_ws = alice_->workspace();
    lbtrust::datalog::Workspace* bob_ws = bob_->workspace();
    const auto signs0 = alice_->crypto_stats().rsa_signs;
    const auto verifies0 = bob_->crypto_stats().rsa_verifies;
    const int delta0 = bob_ws->delta_eval_rounds();
    const int full0 = bob_ws->full_eval_rounds();
    const size_t active_start = Rows(bob_ws, "active");
    size_t rounds = 0;
    size_t bytes = 0;
    size_t tuples = 0;
    for (const Message& m : messages_) {
      uint64_t t0 = NowNs();
      std::string why;
      {
        Scoped span(trace, Layer::kRequest, "req.deliver");
        lbtrust::datalog::Transaction txn = alice_->Begin();
        txn.AddFact("msg", {Value::Str(m.token)});
        lbtrust::util::Status st = Commit(&txn, alice_ws, trace);
        if (!st.ok()) {
          why = st.ToString();
        } else {
          Scoped run(trace, Layer::kClusterRun);
          auto stats = cluster_->Run();
          run.Close();
          if (!stats.ok()) {
            why = stats.status().ToString();
          } else {
            rounds += stats->rounds;
            bytes += stats->tuple_bytes;
            tuples += stats->tuples;
            if (stats->tuples != 1) {
              why = lbtrust::util::StrCat("delivered ", stats->tuples,
                                          " tuples for one message");
            }
          }
        }
      }
      rec->Record(Op::kDeliver, NowNs() - t0, why.empty(), why);
      Verdict(m.probe, true, trace, rec, state);
      Verdict(m.absent, false, trace, rec, state);
    }
    const size_t signs = alice_->crypto_stats().rsa_signs - signs0;
    const size_t verifies = bob_->crypto_stats().rsa_verifies - verifies0;
    const size_t pings = Rows(bob_ws, "ping");
    // Exactly one signature, one verification and one ping per message.
    std::string why;
    if (pings != kMessagesPerPass) {
      why = lbtrust::util::StrCat("bob holds ", pings, " pings");
    } else if (signs != kMessagesPerPass || verifies != kMessagesPerPass) {
      why = lbtrust::util::StrCat(signs, " signs / ", verifies, " verifies");
    }
    if (!why.empty()) rec->Record(Op::kDeliver, 0, false, why);
    int delta = bob_ws->delta_eval_rounds() - delta0;
    int full = bob_ws->full_eval_rounds() - full0;
    state->counters = {{"pings", static_cast<double>(pings)},
                       {"rsa_signs", static_cast<double>(signs)},
                       {"rsa_verifies", static_cast<double>(verifies)},
                       {"tuples", static_cast<double>(tuples)},
                       {"bytes", static_cast<double>(bytes)},
                       {"rounds", static_cast<double>(rounds)},
                       {"active_rows", static_cast<double>(Rows(bob_ws, "active"))}};
    layer_counters_ = {
        {"datalog.fixpoint_delta_ratio",
         delta + full > 0 ? static_cast<double>(delta) / (delta + full) : 0},
        {"datalog.active_rows_start", static_cast<double>(active_start)},
        {"datalog.active_rows_end", static_cast<double>(Rows(bob_ws, "active"))},
        {"datalog.codegen_rounds", static_cast<double>(bob_ws->last_codegen_rounds())},
        {"trust.rsa_signs", static_cast<double>(signs)},
        {"trust.rsa_verifies", static_cast<double>(verifies)},
        {"net.cluster_rounds", static_cast<double>(rounds) / kMessagesPerPass},
        {"net.cluster_bytes_per_tuple",
         tuples > 0 ? static_cast<double>(bytes) / tuples : 0}};
  }

  size_t ThroughputUnitsPerPass() const override { return kMessagesPerPass; }
  std::map<std::string, double> LayerCounters() const override {
    return layer_counters_;
  }

 private:
  static size_t Rows(lbtrust::datalog::Workspace* ws, const char* name) {
    const auto* rel = ws->GetRelation(name);
    return rel != nullptr ? rel->size() : 0;
  }

  void Verdict(const std::string& probe, bool expected, LayerTrace* trace,
               Recorder* rec, PassState* state) {
    uint64_t t0 = NowNs();
    std::string why;
    bool verdict = false;
    {
      Scoped span(trace, Layer::kRequest, "req.verdict");
      why = Probe(bob_, probe, trace, &verdict);
    }
    uint64_t ns = NowNs() - t0;
    state->verdicts += verdict ? '1' : '0';
    if (why.empty() && verdict != expected) why = "wrong verdict for " + probe;
    rec->Record(Op::kVerdict, ns, why.empty(), why);
  }

  std::vector<Message> messages_;
  std::unique_ptr<Cluster> cluster_;
  TrustRuntime* alice_ = nullptr;
  TrustRuntime* bob_ = nullptr;
  std::map<std::string, double> layer_counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeBinderExchange() {
  return std::make_unique<BinderExchange>();
}

}  // namespace e2ebench

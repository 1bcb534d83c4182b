// MySQL/LinkBench-shape scenarios over GraphStore (paper Table 3: MySQL
// driven by Facebook's LinkBench). Sharded row locks plus one log lock
// every write crosses; the profile where oversubscribed spinning collapses
// (the TICKET rows of Figures 13-14).
//
// Mix: reads split 3/4 link-list reads, 1/4 node point reads (LinkBench is
// link-read dominated); the write remainder splits 60% AddLink, 20%
// UpdateNode, 20% DeleteLink.
#include "src/systems/scenarios/scenario_defs.hpp"

#include "src/systems/graphstore.hpp"

namespace lockin {
namespace {

class GraphScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int read_percent = 70;
    std::uint64_t nodes = 2048;  // overridable via ScenarioConfig::key_space
    std::size_t shards = 32;
    int link_types = 4;
  };

  explicit GraphScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    nodes_ = config.key_space != 0 ? config.key_space : params_.nodes;
    link_read_below_ = read_percent * 3 / 4;
    node_read_below_ = read_percent;
    const int writes = 100 - read_percent;
    add_link_below_ = read_percent + writes * 6 / 10;
    update_below_ = read_percent + writes * 8 / 10;
    graph_ = std::make_unique<GraphStore>(config.MakeLockFactory(),
                                          ShardCount(config, params_.shards));
    // Deterministic preload: every node, plus a few links per node so the
    // link-list reads have something to traverse.
    Xoshiro256 rng(config.seed * 977 + 13);
    for (std::uint64_t n = 0; n < nodes_; ++n) {
      const std::uint64_t id = graph_->AddNode("node");
      for (int l = 0; l < 3; ++l) {
        graph_->AddLink(id, static_cast<int>(rng.NextBelow(params_.link_types)),
                        rng.NextBelow(nodes_) + 1);
      }
    }
    preload_log_records_ = graph_->log_records();
  }

  std::vector<std::string> CounterNames() const override {
    return {"link_reads", "node_reads", "node_read_hits", "logged_writes", "links_deleted"};
  }

  void Op(ThreadContext& ctx) override {
    const std::uint64_t id = ctx.rng.NextBelow(nodes_) + 1;  // AddNode ids start at 1
    const int type = static_cast<int>(ctx.rng.NextBelow(params_.link_types));
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < link_read_below_) {
      ++ctx.counters[0];
      graph_->GetLinkList(id, type, 8);
    } else if (roll < node_read_below_) {
      ++ctx.counters[1];
      if (graph_->GetNode(id, &ctx.value)) {
        ++ctx.counters[2];
      }
    } else if (roll < add_link_below_) {
      // AddLink always crosses the log lock, hit or duplicate.
      graph_->AddLink(id, type, ctx.rng.NextBelow(nodes_) + 1);
      ++ctx.counters[3];
    } else if (roll < update_below_) {
      AssignKey(&ctx.value, 'p', ctx.op_index);
      if (graph_->UpdateNode(id, ctx.value)) {
        ++ctx.counters[3];  // UpdateNode logs only when the node exists
      }
    } else {
      if (graph_->DeleteLink(id, type, ctx.rng.NextBelow(nodes_) + 1)) {
        ++ctx.counters[3];  // DeleteLink logs only when it removed something
        ++ctx.counters[4];
      }
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"log_records", static_cast<double>(graph_->log_records())});
    out->push_back({"preload_log_records", static_cast<double>(preload_log_records_)});
  }

 private:
  Params params_;
  int link_read_below_ = 0;
  int node_read_below_ = 0;
  int add_link_below_ = 0;
  int update_below_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t preload_log_records_ = 0;
  std::unique_ptr<GraphStore> graph_;
};

}  // namespace

void RegisterGraphScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description, int read_percent) {
    GraphScenario::Params params;
    params.read_percent = read_percent;
    registry.Register({name, "GraphStore", description},
                      [params] { return std::make_unique<GraphScenario>(params); });
  };
  add("graph/traverse", "LinkBench read-heavy: 70% link/node reads, 30% link/node writes", 70);
  add("graph/update", "LinkBench write-heavy: 30% reads, 70% writes crossing the log lock", 30);
}

}  // namespace lockin

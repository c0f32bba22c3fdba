// The sledged config parser (runtime::parse_config): every key the README
// documents parses and changes its field, `{}` yields RuntimeConfig{}
// defaults, and wrong keys, types and ranges are errors naming the key —
// both from the parser and as sledged's exit status.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sledge/runtime.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

Result<ServerConfig> parse_text(const std::string& text) {
  auto doc = json::parse(text);
  if (!doc.ok()) return Result<ServerConfig>::error(doc.error_message());
  return parse_config(*doc);
}

const char* kModule = R"({"name": "ping", "minicc": "ping.mc"})";

// Inputs a lenient parser would run with silently (a misspelled key
// ignored, a string or out-of-range number falling back or wrapping), each
// with the key its error must name.
const std::vector<std::pair<std::string, std::string>> kBadConfigs = {
    {R"({"dispacher": "global_edf"})", "dispacher"},
    {R"({"workers": "4"})", "workers"},
    {R"({"preemption": "false"})", "preemption"},
    {R"({"port": 70000})", "port"},
    {R"({"quantum_us": -1})", "quantum_us"},
    {R"({"policy": "global_lock"})", "policy"},
    {R"({"modules": [{"name": "p", "wasm": "p", "instantiation": "cold"}]})",
     "modules[0].instantiation"},
    {R"({"modules": [{"name": "p", "wasm": "p", "budget_us": "5"}]})",
     "modules[0].budget_us"},
    // Keys of the deleted snapshot tier and warm-pool autoscaler: an old
    // config must fail loudly, not run on the pooled tier unnoticed.
    {R"({"instantiation": "snapshot"})", "instantiation"},
    {R"({"warm_pool": true})", "warm_pool"},
    {R"({"warm_pool_max": 8})", "warm_pool_max"},
    {R"({"warm_pool_interval_us": 2000})", "warm_pool_interval_us"},
    {R"({"warm_pool_headroom": 1.5})", "warm_pool_headroom"},
    {R"({"warm_pool_idle_decay_ms": 2000})", "warm_pool_idle_decay_ms"},
    // FIFO run-to-completion is round robin with "preemption": false.
    {R"({"scheduler": "fifo"})", "scheduler"},
};

TEST(ConfigTest, RejectsBadKeysTypesAndRangesNamingTheKey) {
  for (const auto& [text, key] : kBadConfigs) {
    auto cfg = parse_text(text);
    ASSERT_FALSE(cfg.ok()) << text;
    EXPECT_EQ(cfg.error_message().rfind(key + ": ", 0), 0u)
        << text << " -> " << cfg.error_message();
  }
}

TEST(ConfigTest, EmptyConfigYieldsDefaults) {
  auto cfg = parse_text(std::string(R"({"modules": [)") + kModule + "]}");
  ASSERT_TRUE(cfg.ok()) << cfg.error_message();
  EXPECT_TRUE(cfg->runtime == RuntimeConfig{});
  ASSERT_EQ(cfg->modules.size(), 1u);
  EXPECT_EQ(cfg->modules[0].name, "ping");
  EXPECT_EQ(cfg->modules[0].minicc, "ping.mc");
  EXPECT_TRUE(cfg->modules[0].wasm.empty());
  EXPECT_TRUE(cfg->modules[0].limits == ModuleLimits{});

  auto bare = parse_text("{}");
  ASSERT_TRUE(bare.ok()) << bare.error_message();
  EXPECT_TRUE(bare->runtime == RuntimeConfig{});
  EXPECT_TRUE(bare->modules.empty());
}

TEST(ConfigTest, ModuleEntriesNeedANameAndOneSource) {
  for (const char* text :
       {R"({"modules": [{"minicc": "ping.mc"}]})",
        R"({"modules": [{"name": "ping"}]})",
        R"({"modules": [{"name": "ping", "wasm": "a", "minicc": "b"}]})",
        R"({"modules": {"name": "ping"}})", R"({"modules": null})",
        R"([1])"}) {
    EXPECT_FALSE(parse_text(text).ok()) << text;
  }
}

TEST(ConfigTest, EveryDispatcherNameRoundTrips) {
  for (DispatchPolicy p : testutil::kAllDispatchers) {
    auto cfg = parse_text(std::string(R"({"dispatcher": ")") + to_string(p) +
                          "\"}");
    ASSERT_TRUE(cfg.ok()) << cfg.error_message();
    EXPECT_EQ(cfg->runtime.dispatcher, p);
  }
}

// Keys of the README's sledged config table; the `modules` row's braces
// list the per-module keys.
void readme_keys(std::set<std::string>* top, std::set<std::string>* module) {
  std::ifstream in(std::string(SLEDGE_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "README.md not found";
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line == "| key | default | meaning |") {
      in_table = true;
      continue;
    }
    if (!in_table || line.rfind("|---", 0) == 0) continue;
    if (line.rfind("| `", 0) != 0) break;
    std::string key = line.substr(3, line.find('`', 3) - 3);
    top->insert(key);
    if (key != "modules") continue;
    size_t open = line.find("`{") + 2;
    std::stringstream fields(line.substr(open, line.find("}`") - open));
    std::string field;
    while (std::getline(fields, field, ',')) {
      field.erase(0, field.find_first_not_of(' '));
      if (!field.empty() && field.back() == '?') field.pop_back();
      if (field == "wasm\\|minicc") {
        module->insert({"wasm", "minicc"});
      } else {
        module->insert(field);
      }
    }
  }
}

TEST(ConfigTest, EveryReadmeKeyParsesAndSetsItsField) {
  // A valid non-default value for every documented key.
  const std::map<std::string, std::string> top_values = {
      {"port", "8080"},
      {"workers", "4"},
      {"num_listeners", "2"},
      {"quantum_us", "1000"},
      {"preemption", "false"},
      {"dispatcher", R"("per_worker")"},
      {"scheduler", R"("edf")"},
      {"pool", "false"},
      {"pool_per_thread", "4"},
      {"pool_global", "32"},
      {"tier", R"("interp")"},
      {"bounds", R"("software")"},
      {"budget_us", "100"},
      {"deadline_us", "200"},
      {"max_pending", "10"},
      {"admission", R"("slack")"},
      {"drain_grace_ms", "10"},
      {"max_sandbox_fds", "4"},
      {"max_invoke_depth", "2"},
      {"admin_endpoint", "false"},
      {"access_log", R"("access.log")"},
      {"invoke_dataplane", R"("copy")"},
  };
  const std::map<std::string, std::string> module_values = {
      {"budget_us", "100"},
      {"deadline_us", "200"},
      {"tenant_weight", "3"},
      {"invoke_dataplane", R"("copy")"},
  };

  std::set<std::string> top, module;
  readme_keys(&top, &module);
  ASSERT_TRUE(top.count("modules"));
  top.erase("modules");
  for (const char* k : {"name", "wasm", "minicc"}) {
    ASSERT_TRUE(module.count(k)) << k;
    module.erase(k);
  }
  std::set<std::string> want_top, want_module;
  for (const auto& [k, v] : top_values) want_top.insert(k);
  for (const auto& [k, v] : module_values) want_module.insert(k);
  EXPECT_EQ(top, want_top) << "README table and test disagree";
  EXPECT_EQ(module, want_module) << "README modules row and test disagree";

  for (const auto& [key, value] : top_values) {
    auto cfg = parse_text("{\"" + key + "\": " + value + "}");
    ASSERT_TRUE(cfg.ok()) << key << ": " << cfg.error_message();
    EXPECT_FALSE(cfg->runtime == RuntimeConfig{}) << key << " set nothing";
  }
  for (const auto& [key, value] : module_values) {
    auto cfg = parse_text(std::string(R"({"modules": [{"name": "m",)") +
                          R"( "wasm": "m.wasm", ")" + key + "\": " + value +
                          "}]}");
    ASSERT_TRUE(cfg.ok()) << key << ": " << cfg.error_message();
    EXPECT_FALSE(cfg->modules[0].limits == ModuleLimits{})
        << key << " set nothing";
  }
}

// The same bad inputs through the real binary: exit status 1 and the key
// named on stderr, before any module is loaded or a port bound.
TEST(ConfigTest, SledgedExitsOneOnBadConfig) {
  const std::string path = ::testing::TempDir() + "sledged_bad_config.json";
  for (const auto& [text, key] : kBadConfigs) {
    {
      std::ofstream out(path);
      out << text;
    }
    std::string cmd = std::string(SLEDGE_SLEDGED_BIN) + " " + path + " 2>&1";
    FILE* p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string output;
    char buf[256];
    while (size_t n = std::fread(buf, 1, sizeof buf, p)) output.append(buf, n);
    int status = ::pclose(p);
    ASSERT_TRUE(WIFEXITED(status)) << text;
    EXPECT_EQ(WEXITSTATUS(status), 1) << text;
    EXPECT_NE(output.find(key + ": "), std::string::npos)
        << text << " -> " << output;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sledge::runtime

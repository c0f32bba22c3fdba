// The `sledged` config parser: one key table per JSON object (top level
// and module entry). Each entry names the key, its JSON type, the accepted
// range or spellings, and the field it sets; anything the table does not
// accept is an error naming the key.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sledge/runtime.hpp"

namespace sledge::runtime {
namespace {

std::string number(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

// A value as it appears in error messages.
std::string describe(const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNumber: return number(v.as_number());
    case json::Value::Type::kArray: return "an array";
    case json::Value::Type::kObject: return "an object";
    default: return v.dump();
  }
}

// Checks shared by every key; each returns the error text, or "" when the
// value is acceptable. Kept out of the per-key templates below so the
// table compiles to little code.
std::string check_bool(const json::Value& v) {
  return v.is_bool() ? "" : "expected a boolean, got " + describe(v);
}

std::string check_number(const json::Value& v, double lo, double hi,
                         bool integral) {
  double d = v.as_number();
  if (!v.is_number() || (integral && std::trunc(d) != d)) {
    return std::string(integral ? "expected an integer, got "
                                : "expected a number, got ") +
           describe(v);
  }
  if (!(d >= lo && d <= hi)) {
    return describe(v) + " is out of range [" + number(lo) + ", " +
           number(hi) + "]";
  }
  return "";
}

std::string check_string(const json::Value& v) {
  return v.is_string() ? "" : "expected a string, got " + describe(v);
}

// On success `*index` is the position of `v` in `names`.
std::string check_choice(const json::Value& v,
                         const std::vector<std::string>& names,
                         size_t* index) {
  std::string allowed;
  for (size_t i = 0; i < names.size(); ++i) {
    if (v.is_string() && v.as_string() == names[i]) {
      *index = i;
      return "";
    }
    allowed += (i == 0 ? "" : " | ") + names[i];
  }
  return "expected one of " + allowed + ", got " + describe(v);
}

// One config key of a JSON object that fills a `T`. The helpers below
// build the entries: each fixes the key's JSON type, its accepted range or
// spellings, and the field it sets.
template <typename T>
struct Key {
  const char* name;
  // Checks `v` and stores it into the key's field; returns the error text,
  // or "" once the value is stored.
  std::function<std::string(T&, const json::Value&)> apply;
};

template <typename T, typename F>
Key<T> flag(const char* name, F field) {
  return {name, [field](T& t, const json::Value& v) {
            std::string err = check_bool(v);
            if (err.empty()) field(t) = v.as_bool();
            return err;
          }};
}

// A number in [lo, hi] (the key's own unit), stored times `scale`; integer
// fields accept only integral values.
template <typename T, typename F>
Key<T> num(const char* name, double lo, double hi, F field, double scale = 1) {
  return {name, [=](T& t, const json::Value& v) {
            using U = std::remove_reference_t<decltype(field(t))>;
            std::string err = check_number(v, lo, hi, std::is_integral_v<U>);
            if (err.empty()) field(t) = static_cast<U>(v.as_number() * scale);
            return err;
          }};
}

template <typename T, typename F>
Key<T> text(const char* name, F field) {
  return {name, [field](T& t, const json::Value& v) {
            std::string err = check_string(v);
            if (err.empty()) field(t) = v.as_string();
            return err;
          }};
}

template <typename T, typename E, typename F>
Key<T> choice(const char* name,
              std::vector<std::pair<const char*, E>> values, F field) {
  std::vector<std::string> names;
  for (const auto& [spelling, value] : values) names.push_back(spelling);
  return {name, [names, values, field](T& t, const json::Value& v) {
            size_t i = 0;
            std::string err = check_choice(v, names, &i);
            if (err.empty()) field(t) = values[i].second;
            return err;
          }};
}

// Generic accessor for a (possibly nested) field of the table's target.
#define FIELD(path) [](auto& c) -> auto& { return c.path; }

constexpr int64_t kDayUs = 86'400'000'000;

const std::vector<Key<RuntimeConfig>>& runtime_keys() {
  using C = RuntimeConfig;
  static const std::vector<Key<C>> keys = {
      num<C>("port", 0, 65535, FIELD(port)),
      num<C>("workers", 1, 1024, FIELD(workers)),
      num<C>("num_listeners", 0, 64, FIELD(num_listeners)),
      num<C>("quantum_us", 1, 60'000'000, FIELD(quantum_us)),
      flag<C>("preemption", FIELD(preemption)),
      choice<C, DispatchPolicy>(
          "dispatcher",
          {{"work_stealing", DispatchPolicy::kWorkStealing},
           {"global_lock", DispatchPolicy::kGlobalLock},
           {"per_worker", DispatchPolicy::kPerWorker},
           {"global_edf", DispatchPolicy::kGlobalEdf},
           {"sharded_module", DispatchPolicy::kShardedByModule}},
          FIELD(dispatcher)),
      choice<C, SchedPolicy>("scheduler",
                             {{"round_robin", SchedPolicy::kRoundRobin},
                              {"rr", SchedPolicy::kRoundRobin},
                              {"edf", SchedPolicy::kEdf}},
                             FIELD(sched)),
      choice<C, AdmissionPolicy>(
          "admission",
          {{"depth", AdmissionPolicy::kQueueDepth},
           {"slack", AdmissionPolicy::kExpectedSlack}},
          FIELD(admission)),
      flag<C>("pool", FIELD(pool.enabled)),
      num<C>("pool_per_thread", 0, 65536, FIELD(pool.per_thread_cap)),
      num<C>("pool_global", 0, 1 << 20, FIELD(pool.global_cap)),
      choice<C, engine::Tier>("tier",
                              {{"aot", engine::Tier::kAot},
                               {"aot_o1", engine::Tier::kAotO0},
                               {"interp_fast", engine::Tier::kInterpFast},
                               {"interp", engine::Tier::kInterp}},
                              FIELD(engine.tier)),
      choice<C, engine::BoundsStrategy>(
          "bounds",
          {{"vm_guard", engine::BoundsStrategy::kVmGuard},
           {"software", engine::BoundsStrategy::kSoftware},
           {"mpx_sim", engine::BoundsStrategy::kMpxSim},
           {"none", engine::BoundsStrategy::kNone}},
          FIELD(engine.strategy)),
      num<C>("budget_us", 0, kDayUs, FIELD(execution_budget_ns), 1000),
      num<C>("deadline_us", 0, kDayUs, FIELD(deadline_ns), 1000),
      num<C>("max_pending", 0, 1 << 30, FIELD(max_pending)),
      num<C>("drain_grace_ms", 0, 3'600'000, FIELD(drain_grace_ns),
             1'000'000),
      num<C>("max_sandbox_fds", 0, 1024, FIELD(max_sandbox_fds)),
      num<C>("max_invoke_depth", 0, 64, FIELD(max_invoke_depth)),
      choice<C, InvokeDataplane>("invoke_dataplane",
                                 {{"shm", InvokeDataplane::kShm},
                                  {"copy", InvokeDataplane::kCopy}},
                                 FIELD(invoke_dataplane)),
      flag<C>("admin_endpoint", FIELD(admin_endpoint)),
      text<C>("access_log", FIELD(access_log_path)),
  };
  return keys;
}

const std::vector<Key<ModuleSpec>>& module_keys() {
  using M = ModuleSpec;
  static const std::vector<Key<M>> keys = {
      text<M>("name", FIELD(name)),
      text<M>("wasm", FIELD(wasm)),
      text<M>("minicc", FIELD(minicc)),
      num<M>("budget_us", 0, kDayUs, FIELD(limits.execution_budget_ns),
             1000),
      num<M>("deadline_us", 0, kDayUs, FIELD(limits.deadline_ns), 1000),
      num<M>("tenant_weight", 0, 1'000'000, FIELD(limits.tenant_weight)),
      choice<M, InvokeDataplaneOverride>(
          "invoke_dataplane",
          {{"shm", InvokeDataplaneOverride::kShm},
           {"copy", InvokeDataplaneOverride::kCopy}},
          FIELD(limits.invoke_dataplane)),
  };
  return keys;
}

#undef FIELD

// Applies every member of `obj` through `keys`, skipping the member named
// `nested` (parsed by the caller); `where` prefixes error paths.
template <typename T>
Status apply_object(const json::Value& obj, const std::vector<Key<T>>& keys,
                    const std::string& where, const char* nested, T* target) {
  if (!obj.is_object()) {
    return Status::error((where.empty() ? "config" : where) +
                         ": expected an object, got " + describe(obj));
  }
  for (const auto& [name, value] : obj.as_object()) {
    if (name == nested) continue;
    std::string path = where.empty() ? name : where + "." + name;
    auto key = std::find_if(keys.begin(), keys.end(),
                            [&](const Key<T>& k) { return name == k.name; });
    if (key == keys.end()) return Status::error(path + ": unknown key");
    std::string err = key->apply(*target, value);
    if (!err.empty()) return Status::error(path + ": " + err);
  }
  return Status::ok();
}

}  // namespace

Result<ServerConfig> parse_config(const json::Value& doc) {
  ServerConfig out;
  Status s = apply_object(doc, runtime_keys(), "", "modules", &out.runtime);
  if (!s.is_ok()) return Result<ServerConfig>::error(s.message());
  const json::Value& modules = doc["modules"];
  if (doc.as_object().count("modules") && !modules.is_array()) {
    return Result<ServerConfig>::error(
        "modules: expected an array, got " + describe(modules));
  }
  for (const json::Value& entry : modules.as_array()) {
    std::string where = "modules[" + std::to_string(out.modules.size()) + "]";
    ModuleSpec spec;
    s = apply_object(entry, module_keys(), where, "", &spec);
    if (!s.is_ok()) return Result<ServerConfig>::error(s.message());
    if (spec.name.empty()) {
      return Result<ServerConfig>::error(where + ".name: missing or empty");
    }
    if (spec.wasm.empty() == spec.minicc.empty()) {
      return Result<ServerConfig>::error(
          where + ": needs exactly one of \"wasm\" or \"minicc\"");
    }
    out.modules.push_back(std::move(spec));
  }
  return Result<ServerConfig>(std::move(out));
}

}  // namespace sledge::runtime

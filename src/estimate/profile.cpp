#include "estimate/profile.h"

namespace specsyn {

void ProfileCollector::on_bind(const Binding& b) {
  behavior_names_ = *b.behavior_names;
  var_names_.clear();
  var_names_.reserve(b.vars->size());
  for (size_t slot = 0; slot < b.vars->size(); ++slot) {
    var_names_.push_back(b.vars->name_of(slot));
  }
  behaviors_.assign(behavior_names_.size(), BehaviorProfile{});
  accesses_.assign(behavior_names_.size() * var_names_.size(), AccessCounts{});
}

// Variable accesses always execute inside a started behavior, so `behavior`
// is a valid id here.
void ProfileCollector::on_var_read(uint32_t slot, uint32_t behavior,
                                   uint64_t) {
  ++accesses_[behavior * var_names_.size() + slot].reads;
}

void ProfileCollector::on_var_write(uint32_t slot, uint32_t behavior, uint64_t,
                                    uint64_t) {
  ++accesses_[behavior * var_names_.size() + slot].writes;
}

void ProfileCollector::on_behavior_start(uint32_t behavior, uint64_t,
                                         uint64_t time) {
  BehaviorProfile& p = behaviors_[behavior];
  if (p.activations == 0) p.first_start = time;
  ++p.activations;
}

void ProfileCollector::on_behavior_end(uint32_t behavior, uint64_t,
                                       uint64_t time) {
  behaviors_[behavior].last_end = time;
}

std::map<std::string, BehaviorProfile> ProfileCollector::behaviors() const {
  std::map<std::string, BehaviorProfile> out;
  for (size_t id = 0; id < behaviors_.size(); ++id) {
    if (behaviors_[id].activations != 0) {
      out.emplace(behavior_names_[id], behaviors_[id]);
    }
  }
  return out;
}

std::map<std::pair<std::string, std::string>, AccessCounts>
ProfileCollector::accesses() const {
  std::map<std::pair<std::string, std::string>, AccessCounts> out;
  for (size_t i = 0; i < accesses_.size(); ++i) {
    if (accesses_[i].total() != 0) {
      out.emplace(std::pair(behavior_names_[i / var_names_.size()],
                            var_names_[i % var_names_.size()]),
                  accesses_[i]);
    }
  }
  return out;
}

ProfileResult profile_spec(const Specification& spec, SimConfig cfg) {
  Simulator sim(spec, cfg);
  ProfileCollector collector;
  sim.add_slot_observer(&collector);
  ProfileResult result;
  result.sim = sim.run();
  result.behaviors = collector.behaviors();
  result.accesses = collector.accesses();
  return result;
}

}  // namespace specsyn

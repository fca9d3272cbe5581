#include "sim/vcd.h"

namespace specsyn {

namespace {

std::string to_binary(uint64_t v, uint32_t width) {
  std::string s;
  for (uint32_t i = width; i-- > 0;) s += ((v >> i) & 1) ? '1' : '0';
  return s;
}

}  // namespace

std::string VcdRecorder::make_id(size_t n) {
  // Printable-ASCII identifiers: ! .. ~ (94 symbols), base-94.
  std::string id;
  do {
    id += static_cast<char>('!' + n % 94);
    n /= 94;
  } while (n != 0);
  return id;
}

VcdRecorder::VcdRecorder(const Specification& spec, VcdOptions opts)
    : opts_(std::move(opts)) {
  header_ << "$date specsyn-refine $end\n"
          << "$version specsyn-refine VCD export $end\n"
          << "$timescale " << opts_.timescale << " $end\n"
          << "$scope module " << spec.name << " $end\n";
  size_t n = 0;
  for (const SignalDecl* s : spec.all_signals()) {
    Wire w;
    w.id = make_id(n++);
    w.width = s->type.width;
    w.last = s->init;
    w.has_value = true;
    header_ << "$var wire " << w.width << " " << w.id << " " << s->name
            << " $end\n";
    wires_.emplace(s->name, std::move(w));
  }
  if (opts_.include_observables) {
    for (const VarDecl* v : spec.all_vars()) {
      if (!v->is_observable) continue;
      Wire w;
      w.id = make_id(n++);
      w.width = v->type.width;
      w.last = v->init;
      w.has_value = true;
      header_ << "$var wire " << w.width << " " << w.id << " " << v->name
              << " $end\n";
      wires_.emplace(v->name, std::move(w));
    }
  }
  header_ << "$upscope $end\n$enddefinitions $end\n";
  // Initial values at t=0.
  body_ << "#0\n$dumpvars\n";
  for (const auto& [name, w] : wires_) {
    (void)name;
    if (w.width == 1) {
      body_ << (w.last & 1) << w.id << "\n";
    } else {
      body_ << "b" << to_binary(w.last, w.width) << " " << w.id << "\n";
    }
  }
  body_ << "$end\n";
  last_time_ = 0;
}

void VcdRecorder::emit_time(uint64_t time) {
  if (time != last_time_) {
    body_ << "#" << time << "\n";
    last_time_ = time;
  }
}

void VcdRecorder::on_bind(const Binding& b) {
  // Observable variables only have wires when include_observables is set.
  const auto wire_of = [&](const std::string& name) -> Wire* {
    auto it = wires_.find(name);
    return it == wires_.end() ? nullptr : &it->second;
  };
  signal_wires_.clear();
  for (size_t slot = 0; slot < b.signals->size(); ++slot) {
    signal_wires_.push_back(wire_of(b.signals->name_of(slot)));
  }
  var_wires_.clear();
  for (size_t slot = 0; slot < b.vars->size(); ++slot) {
    var_wires_.push_back(wire_of(b.vars->name_of(slot)));
  }
}

void VcdRecorder::record(Wire* w, uint64_t time, uint64_t value) {
  if (w == nullptr) return;
  if (w->has_value && w->last == value) return;
  w->last = value;
  w->has_value = true;
  emit_time(time);
  if (w->width == 1) {
    body_ << (value & 1) << w->id << "\n";
  } else {
    body_ << "b" << to_binary(value, w->width) << " " << w->id << "\n";
  }
  ++changes_;
}

void VcdRecorder::on_signal_commit(uint32_t slot, uint64_t time,
                                   uint64_t value) {
  record(signal_wires_[slot], time, value);
}

void VcdRecorder::on_var_write(uint32_t slot, uint32_t, uint64_t time,
                               uint64_t value) {
  record(var_wires_[slot], time, value);
}

std::string VcdRecorder::str() const { return header_.str() + body_.str(); }

}  // namespace specsyn

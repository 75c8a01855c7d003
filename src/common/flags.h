// Tiny CLI flag parser shared by benches and examples.
// Accepts --name=value, --name value, and bare --name (boolean true).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ripple {

class Flags {
 public:
  Flags() = default;
  Flags(int argc, char** argv) { parse(argc, argv); }

  void parse(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

  // Comma-separated list of integers, e.g. --batch-sizes=1,10,100.
  std::vector<std::int64_t> get_int_list(
      const std::string& name,
      const std::vector<std::int64_t>& default_value) const;

  // Comma-separated list of doubles, e.g. --rmat-a=0.45,0.57,0.8.
  std::vector<double> get_double_list(
      const std::string& name, const std::vector<double>& default_value) const;

  // Validated enumeration value: dies with a message listing the allowed
  // values when the flag is set to anything else (e.g. --mode=bsp|async).
  std::string get_choice(const std::string& name,
                         const std::vector<std::string>& allowed,
                         const std::string& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ripple

// Tiny command-line flag parsing for the CLI tools: --key value pairs
// with typed accessors and defaults. Every accessor marks its key as
// read; once a tool has read all of its flags it calls RejectUnread(),
// so a misspelled or retired flag fails loudly instead of doing nothing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

namespace serenade::tools {

/// Parses "--key value" pairs; bare "--key" stores "true".
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const std::string key = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") {
    auto it = Find(key);
    return it == values_.end() ? fallback : it->second;
  }

  uint64_t GetInt(const std::string& key, uint64_t fallback) {
    auto it = Find(key);
    return it == values_.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& key, double fallback) {
    auto it = Find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  bool GetBool(const std::string& key, bool fallback) {
    auto it = Find(key);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  /// Exits with status 2, naming every flag on the command line that no
  /// accessor has read. Call it after the last accessor and before the
  /// tool does any work.
  void RejectUnread() const {
    std::string unread;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) unread += " --" + key;
    }
    if (unread.empty()) return;
    std::fprintf(stderr, "unknown flag(s):%s\n", unread.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& key) {
    read_.insert(key);
    return values_.find(key);
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> read_;
};

}  // namespace serenade::tools

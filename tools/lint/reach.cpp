#include "lint/reach.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace perspector::lint {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::Identifier && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}

constexpr const char* kBlockRule = "block-serve-loop";
constexpr const char* kTaintRule = "det-taint";
constexpr const char* kConfigRule = "seam-config";

std::vector<std::string> split_components(const std::string& name) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t sep = name.find("::", start);
    if (sep == std::string::npos) {
      parts.push_back(name.substr(start));
      return parts;
    }
    parts.push_back(name.substr(start, sep - start));
    start = sep + 2;
  }
}

/// One marker: a blocking primitive or nondeterminism source in a body.
struct Marker {
  int line = 0;
  std::string what;
};

/// Markers that can stall the cooperative serve loop.
std::vector<Marker> blocking_markers(const LexedFile& file,
                                     const Function& fn) {
  std::vector<Marker> out;
  const auto& t = file.tokens;
  const std::size_t end = std::min(fn.body_end, t.size());
  for (std::size_t i = fn.body_begin; i < end; ++i) {
    if (t[i].kind != Token::Kind::Identifier) continue;
    const std::string& id = t[i].text;
    const bool call_next = i + 1 < end && is_punct(t[i + 1], "(");
    if (call_next &&
        (id == "fsync" || id == "fdatasync" || id == "msync" ||
         id == "usleep" || id == "nanosleep" || id == "fread" ||
         id == "fopen" || id == "freopen" || id == "popen" ||
         id == "sleep")) {
      out.push_back(Marker{t[i].line, id});
      continue;
    }
    if (id == "sleep_for" || id == "sleep_until") {
      out.push_back(Marker{t[i].line, id});
      continue;
    }
    if (id == "system" && call_next && i > fn.body_begin &&
        is_punct(t[i - 1], "::")) {
      out.push_back(Marker{t[i].line, "system"});
      continue;
    }
    if (id == "ifstream" || id == "ofstream" || id == "fstream") {
      out.push_back(Marker{t[i].line, id});
      continue;
    }
    // Global `::read(fd, ...)` / `::recv` / `::pread`: the one-token
    // qualifier distinguishes them from methods named read.
    if ((id == "read" || id == "recv" || id == "pread") && call_next &&
        i > fn.body_begin && is_punct(t[i - 1], "::") &&
        (i < 2 || t[i - 2].kind != Token::Kind::Identifier)) {
      out.push_back(Marker{t[i].line, "::" + id});
    }
  }
  return out;
}

/// Markers that make an execution nondeterministic.
std::vector<Marker> nondet_markers(const LexedFile& file,
                                   const Function& fn) {
  std::vector<Marker> out;
  const auto& t = file.tokens;
  const std::size_t end = std::min(fn.body_end, t.size());
  for (std::size_t i = fn.body_begin; i < end; ++i) {
    if (t[i].kind != Token::Kind::Identifier) continue;
    const std::string& id = t[i].text;
    const bool call_next = i + 1 < end && is_punct(t[i + 1], "(");
    if (call_next && (id == "rand" || id == "srand" || id == "rand_r" ||
                      id == "get_id")) {
      out.push_back(Marker{t[i].line, id});
      continue;
    }
    if (id == "random_device") {
      out.push_back(Marker{t[i].line, id});
      continue;
    }
    if (id == "clock_gettime" || id == "gettimeofday") {
      out.push_back(Marker{t[i].line, id});
      continue;
    }
    if ((id == "steady_clock" || id == "system_clock" ||
         id == "high_resolution_clock") &&
        i + 2 < end && is_punct(t[i + 1], "::") && is_ident(t[i + 2], "now")) {
      out.push_back(Marker{t[i].line, id + "::now"});
      continue;
    }
    // Pointer hashing: std::hash<T*> — iteration/grouping by address.
    if (id == "hash" && i + 1 < end && is_punct(t[i + 1], "<")) {
      int depth = 1;
      for (std::size_t j = i + 2; j < std::min(end, i + 16) && depth > 0;
           ++j) {
        if (is_punct(t[j], "<")) ++depth;
        if (is_punct(t[j], ">")) --depth;
        if (is_punct(t[j], "*")) {
          out.push_back(Marker{t[i].line, "hash<T*>"});
          break;
        }
      }
    }
  }
  for (const auto& [line, var] : fn.unordered_uses) {
    out.push_back(Marker{line, var + " (unordered container)"});
  }
  return out;
}

/// Readable function name: the repo namespace prefix adds no signal.
std::string short_name(const std::string& qualified) {
  static const std::string kPrefix = "perspector::";
  if (qualified.compare(0, kPrefix.size(), kPrefix) == 0) {
    return qualified.substr(kPrefix.size());
  }
  return qualified;
}

class ReachChecker {
 public:
  ReachChecker(const std::vector<LexedFile>& files, const SymbolTable& table,
               const CallGraph& graph, const SeamConfig& seams,
               const std::string& seams_path, std::vector<Finding>& findings)
      : files_(files),
        table_(table),
        graph_(graph),
        seams_(seams),
        seams_path_(seams_path),
        findings_(findings) {}

  void run() {
    check_rule(kBlockRule, blocking_markers,
               "can block the cooperative serve loop");
    check_rule(kTaintRule, nondet_markers,
               "taints scoring with nondeterminism");
    check_annotations();
  }

 private:
  /// Does file-level metadata `map` mark rule `rule` on the function's
  /// definition line or the line above it?
  static bool marked(const std::map<int, std::set<std::string>>& map,
                     int line, const std::string& rule) {
    for (const int l : {line, line - 1}) {
      const auto it = map.find(l);
      if (it != map.end() && it->second.count(rule)) return true;
    }
    return false;
  }

  bool fn_has_seam(const Function& fn, const std::string& rule) const {
    return marked(files_[fn.file_index].seams, fn.line, rule);
  }
  bool fn_has_allow(const Function& fn, const std::string& rule) const {
    return marked(files_[fn.file_index].allows, fn.line, rule);
  }
  bool line_allowed(const LexedFile& f, int line,
                    const std::string& rule) const {
    return marked(f.allows, line, rule);
  }

  void check_rule(const std::string& rule,
                  std::vector<Marker> (*markers)(const LexedFile&,
                                                 const Function&),
                  const std::string& consequence) {
    // Resolve conf entries for this rule; stale entries are findings.
    std::vector<std::size_t> roots;
    std::set<std::size_t> seam_fns;
    for (const SeamEntry& entry : seams_.entries) {
      if (entry.rule != rule) continue;
      bool matched = false;
      for (std::size_t i = 0; i < table_.functions.size(); ++i) {
        const Function& fn = table_.functions[i];
        if (!fn.defined || !pattern_matches(entry.pattern, fn.qualified)) {
          continue;
        }
        matched = true;
        if (entry.is_root) {
          roots.push_back(i);
        } else {
          seam_fns.insert(i);
          // A declared seam must carry the code-side annotation too.
          if (!fn_has_seam(fn, rule)) {
            // Appended piecewise: GCC 12's -Wrestrict misfires on the
            // equivalent chain of operator+ temporaries.
            std::string message = "'";
            message += short_name(fn.qualified);
            message += "' is a declared ";
            message += rule;
            message += " seam (seams.conf:";
            message += std::to_string(entry.line);
            message += ") but its definition lacks a lint:seam(";
            message += rule;
            message += ") annotation";
            findings_.push_back(
                Finding{fn.file, fn.line, kConfigRule, std::move(message)});
          }
        }
      }
      if (!matched) {
        findings_.push_back(Finding{
            seams_path_, entry.line, kConfigRule,
            "stale seams.conf entry: pattern '" + entry.pattern +
                "' matches no function definition"});
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());

    // BFS from the roots; seams and allow-marked functions bound the
    // traversal (an allow on the function suppresses its whole subtree).
    std::map<std::size_t, std::size_t> parent;
    std::set<std::size_t> visited;
    std::deque<std::size_t> queue;
    for (const std::size_t r : roots) {
      if (fn_has_allow(table_.functions[r], rule)) continue;
      if (visited.insert(r).second) queue.push_back(r);
    }
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      for (const CallEdge& e : graph_.edges[cur]) {
        if (visited.count(e.callee)) continue;
        const Function& callee = table_.functions[e.callee];
        if (seam_fns.count(e.callee)) continue;
        if (fn_has_allow(callee, rule)) continue;
        visited.insert(e.callee);
        parent.emplace(e.callee, cur);
        queue.push_back(e.callee);
      }
    }

    // Scan every reached body for markers.
    std::set<std::tuple<std::string, int, std::string>> emitted;
    for (const std::size_t i : visited) {
      const Function& fn = table_.functions[i];
      const LexedFile& file = files_[fn.file_index];
      for (const Marker& m : markers(file, fn)) {
        if (line_allowed(file, m.line, rule)) continue;
        if (!emitted.emplace(fn.file, m.line, m.what).second) continue;
        findings_.push_back(Finding{fn.file, m.line, rule,
                                    "'" + m.what + "' " + consequence +
                                        "; path: " + render_path(i, parent)});
      }
    }
  }

  std::string render_path(std::size_t fn,
                          const std::map<std::size_t, std::size_t>& parent)
      const {
    std::vector<std::string> chain;
    std::size_t cur = fn;
    while (true) {
      chain.push_back(short_name(table_.functions[cur].qualified));
      const auto it = parent.find(cur);
      if (it == parent.end()) break;
      cur = it->second;
    }
    std::reverse(chain.begin(), chain.end());
    std::string out;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i > 0) out += " -> ";
      out += chain[i];
    }
    return out;
  }

  /// Every lint:seam annotation must name a known transitive rule and be
  /// matched by a seams.conf entry — one-sided seams are findings.
  void check_annotations() {
    for (const LexedFile& f : files_) {
      for (const auto& [line, rules] : f.seams) {
        for (const std::string& rule : rules) {
          if (rule != kBlockRule && rule != kTaintRule) {
            findings_.push_back(Finding{
                f.path, line, kConfigRule,
                "lint:seam names unknown rule '" + rule +
                    "' (transitive rules: block-serve-loop, det-taint)"});
            continue;
          }
          // The annotated function: defined on this line or the next.
          const Function* fn = nullptr;
          for (const Function& cand : table_.functions) {
            if (cand.defined && cand.file == f.path &&
                (cand.line == line || cand.line == line + 1)) {
              fn = &cand;
              break;
            }
          }
          if (fn == nullptr) {
            findings_.push_back(
                Finding{f.path, line, kConfigRule,
                        "lint:seam(" + rule +
                            ") is not attached to a function definition"});
            continue;
          }
          bool in_conf = false;
          for (const SeamEntry& entry : seams_.entries) {
            if (!entry.is_root && entry.rule == rule &&
                pattern_matches(entry.pattern, fn->qualified)) {
              in_conf = true;
              break;
            }
          }
          if (!in_conf) {
            findings_.push_back(Finding{
                f.path, line, kConfigRule,
                "lint:seam(" + rule + ") on '" + short_name(fn->qualified) +
                    "' has no matching seam entry in " + seams_path_});
          }
        }
      }
    }
  }

  const std::vector<LexedFile>& files_;
  const SymbolTable& table_;
  const CallGraph& graph_;
  const SeamConfig& seams_;
  const std::string& seams_path_;
  std::vector<Finding>& findings_;
};

}  // namespace

SeamConfig parse_seams(const std::string& text, const std::string& path,
                       std::vector<Finding>& findings) {
  SeamConfig config;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string kind, rule, pattern, extra;
    if (!(fields >> kind)) continue;  // blank
    fields >> rule >> pattern;
    if ((kind != "root" && kind != "seam") || rule.empty() ||
        pattern.empty() || (fields >> extra)) {
      findings.push_back(Finding{
          path, line_no, "seam-config",
          "malformed line (expected: root|seam <rule> <pattern>)"});
      continue;
    }
    config.entries.push_back(
        SeamEntry{kind == "root", rule, pattern, line_no});
  }
  return config;
}

bool pattern_matches(const std::string& pattern,
                     const std::string& qualified) {
  std::vector<std::string> want = split_components(pattern);
  const std::vector<std::string> have = split_components(qualified);
  const bool wildcard = !want.empty() && want.back() == "*";
  if (wildcard) want.pop_back();
  if (want.empty() || want.size() > have.size()) return false;
  if (!wildcard) {
    // Component-suffix match aligned to the end of the qualified name.
    return std::equal(want.begin(), want.end(),
                      have.end() - static_cast<std::ptrdiff_t>(want.size()));
  }
  // `Class::*`: the components appear consecutively with at least one
  // component (the method name) after them.
  for (std::size_t start = 0; start + want.size() < have.size(); ++start) {
    if (std::equal(want.begin(), want.end(),
                   have.begin() + static_cast<std::ptrdiff_t>(start))) {
      return true;
    }
  }
  return false;
}

void run_reach_rules(const std::vector<LexedFile>& files,
                     const SymbolTable& table, const CallGraph& graph,
                     const SeamConfig& seams, const std::string& seams_path,
                     std::vector<Finding>& findings) {
  ReachChecker(files, table, graph, seams, seams_path, findings).run();
}

}  // namespace perspector::lint

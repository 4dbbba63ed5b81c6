#include "server/scenario.h"

#include <cstdlib>
#include <sstream>

#include "common/macros.h"
#include "common/number_text.h"
#include "server/protocol.h"

namespace vaolib::server {

namespace {

std::string_view NextWord(std::string_view line, std::size_t* pos) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  const std::size_t start = *pos;
  while (*pos < line.size() && line[*pos] != ' ') ++*pos;
  return line.substr(start, *pos - start);
}

Status LineError(std::size_t line_no, const std::string& message) {
  return Status::InvalidArgument("scenario line " + std::to_string(line_no) +
                                 ": " + message);
}

Result<double> ParseNumber(std::string_view word, std::size_t line_no,
                           const char* what) {
  const std::string text(word);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || end == text.c_str() || *end != '\0') {
    return LineError(line_no, std::string(what) + " '" + text +
                                  "' is not a number");
  }
  return value;
}

}  // namespace

Result<std::vector<ScenarioStep>> ParseScenario(std::string_view text) {
  std::vector<ScenarioStep> steps;
  std::size_t line_no = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find('\n', begin);
    const std::string_view line =
        text.substr(begin, end == std::string_view::npos ? std::string_view::npos
                                                         : end - begin);
    begin = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;

    std::size_t pos = 0;
    const std::string_view op = NextWord(line, &pos);
    if (op.empty() || op.front() == '#') continue;

    ScenarioStep step;
    if (op == "SESSION") {
      step.kind = ScenarioStep::Kind::kSession;
      const std::string_view name = NextWord(line, &pos);
      const std::string_view tenant = NextWord(line, &pos);
      if (!IsValidId(name) || !IsValidId(tenant)) {
        return LineError(line_no,
                         "SESSION needs '<name> <tenant>' ids, got '" +
                             std::string(line) + "'");
      }
      step.session = std::string(name);
      step.tenant = std::string(tenant);
      const std::string_view flag = NextWord(line, &pos);
      if (flag == "reports") {
        step.reports = true;
      } else if (!flag.empty()) {
        return LineError(line_no,
                         "unknown SESSION flag '" + std::string(flag) + "'");
      }
    } else if (op == "SEND") {
      step.kind = ScenarioStep::Kind::kSend;
      const std::string_view name = NextWord(line, &pos);
      if (!IsValidId(name)) {
        return LineError(line_no, "SEND needs a session name, got '" +
                                      std::string(name) + "'");
      }
      step.session = std::string(name);
      if (pos < line.size() && line[pos] == ' ') ++pos;
      if (pos >= line.size()) {
        return LineError(line_no, "SEND is missing the request payload");
      }
      step.payload = std::string(line.substr(pos));
    } else if (op == "TICKS") {
      step.kind = ScenarioStep::Kind::kTicks;
      const std::string_view name = NextWord(line, &pos);
      if (!IsValidId(name)) {
        return LineError(line_no, "TICKS needs a session name, got '" +
                                      std::string(name) + "'");
      }
      step.session = std::string(name);
      const std::string_view count = NextWord(line, &pos);
      VAOLIB_ASSIGN_OR_RETURN(const double count_value,
                              ParseNumber(count, line_no, "TICKS count"));
      if (count_value < 1 || count_value != static_cast<double>(
                                                static_cast<std::uint64_t>(
                                                    count_value))) {
        return LineError(line_no, "TICKS count '" + std::string(count) +
                                      "' is not a positive integer");
      }
      step.count = static_cast<std::uint64_t>(count_value);
      VAOLIB_ASSIGN_OR_RETURN(
          step.base,
          ParseNumber(NextWord(line, &pos), line_no, "TICKS base"));
      VAOLIB_ASSIGN_OR_RETURN(
          step.step,
          ParseNumber(NextWord(line, &pos), line_no, "TICKS step"));
      if (!NextWord(line, &pos).empty()) {
        return LineError(line_no,
                         "TICKS takes '<name> <count> <base> <step>'");
      }
    } else if (op == "EXPECT") {
      step.kind = ScenarioStep::Kind::kExpect;
      const std::string_view name = NextWord(line, &pos);
      if (!IsValidId(name)) {
        return LineError(line_no, "EXPECT needs a session name, got '" +
                                      std::string(name) + "'");
      }
      step.session = std::string(name);
      if (pos < line.size() && line[pos] == ' ') ++pos;
      if (pos >= line.size()) {
        return LineError(line_no, "EXPECT is missing the substring");
      }
      step.payload = std::string(line.substr(pos));
    } else if (op == "CLOSE") {
      step.kind = ScenarioStep::Kind::kClose;
      const std::string_view name = NextWord(line, &pos);
      if (!IsValidId(name)) {
        return LineError(line_no, "CLOSE needs a session name, got '" +
                                      std::string(name) + "'");
      }
      step.session = std::string(name);
      if (!NextWord(line, &pos).empty()) {
        return LineError(line_no, "CLOSE takes exactly one session name");
      }
    } else {
      return LineError(line_no, "unknown step '" + std::string(op) + "'");
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

std::string FormatScenario(const std::vector<ScenarioStep>& steps) {
  std::ostringstream os;
  for (const ScenarioStep& step : steps) {
    switch (step.kind) {
      case ScenarioStep::Kind::kSession:
        os << "SESSION " << step.session << ' ' << step.tenant
           << (step.reports ? " reports" : "");
        break;
      case ScenarioStep::Kind::kSend:
        os << "SEND " << step.session << ' ' << step.payload;
        break;
      case ScenarioStep::Kind::kTicks:
        os << "TICKS " << step.session << ' ' << step.count << ' ';
        // Shortest text that round-trips, like loadgen.py's repr().
        os << RoundTripNumber(step.base) << ' ' << RoundTripNumber(step.step);
        break;
      case ScenarioStep::Kind::kExpect:
        os << "EXPECT " << step.session << ' ' << step.payload;
        break;
      case ScenarioStep::Kind::kClose:
        os << "CLOSE " << step.session;
        break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace vaolib::server

#include "server/protocol.h"

#include <cstdlib>
#include <sstream>

#include "common/number_text.h"
#include "engine/report_capture.h"

namespace vaolib::server {

namespace {

// Splits off the next space-delimited token starting at *pos; returns an
// empty view at end of input. Never crosses the payload end.
std::string_view NextToken(std::string_view payload, std::size_t* pos) {
  while (*pos < payload.size() && payload[*pos] == ' ') ++*pos;
  const std::size_t start = *pos;
  while (*pos < payload.size() && payload[*pos] != ' ') ++*pos;
  return payload.substr(start, *pos - start);
}

void AppendRowList(const std::vector<std::size_t>& rows, std::string* out) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(std::to_string(rows[i]));
  }
}

}  // namespace

bool IsValidId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<Request> ParseRequest(std::string_view payload) {
  std::size_t pos = 0;
  const std::string_view verb = NextToken(payload, &pos);
  if (verb.empty()) {
    return Status::InvalidArgument("empty request");
  }
  Request request;
  if (verb == "HELLO") {
    request.verb = Verb::kHello;
    const std::string_view tenant = NextToken(payload, &pos);
    if (!IsValidId(tenant)) {
      return Status::InvalidArgument(
          "HELLO needs a tenant id (1-64 chars of [A-Za-z0-9_.-]), got '" +
          std::string(tenant) + "'");
    }
    request.tenant = std::string(tenant);
    const std::string_view flag = NextToken(payload, &pos);
    if (flag == "reports") {
      request.want_reports = true;
    } else if (!flag.empty()) {
      return Status::InvalidArgument("unknown HELLO flag '" +
                                     std::string(flag) + "'");
    }
    return request;
  }
  if (verb == "REGISTER") {
    request.verb = Verb::kRegister;
    const std::string_view id = NextToken(payload, &pos);
    if (!IsValidId(id)) {
      return Status::InvalidArgument(
          "REGISTER needs a query id (1-64 chars of [A-Za-z0-9_.-]), got '" +
          std::string(id) + "'");
    }
    request.query_id = std::string(id);
    while (pos < payload.size() && payload[pos] == ' ') ++pos;
    if (pos >= payload.size()) {
      return Status::InvalidArgument("REGISTER " + request.query_id +
                                     " is missing the query text");
    }
    request.sql = std::string(payload.substr(pos));
    return request;
  }
  if (verb == "WITHDRAW") {
    request.verb = Verb::kWithdraw;
    const std::string_view id = NextToken(payload, &pos);
    if (!IsValidId(id)) {
      return Status::InvalidArgument("WITHDRAW needs a query id, got '" +
                                     std::string(id) + "'");
    }
    request.query_id = std::string(id);
    if (!NextToken(payload, &pos).empty()) {
      return Status::InvalidArgument("WITHDRAW takes exactly one query id");
    }
    return request;
  }
  if (verb == "TICK") {
    request.verb = Verb::kTick;
    for (std::string_view token = NextToken(payload, &pos); !token.empty();
         token = NextToken(payload, &pos)) {
      const std::string text(token);
      char* end = nullptr;
      const double value = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || end == text.c_str()) {
        return Status::InvalidArgument("TICK value '" + text +
                                       "' is not a number");
      }
      request.tick_values.push_back(value);
    }
    if (request.tick_values.empty()) {
      return Status::InvalidArgument("TICK needs at least one stream value");
    }
    return request;
  }
  if (verb == "STATS") {
    request.verb = Verb::kStats;
    if (!NextToken(payload, &pos).empty()) {
      return Status::InvalidArgument("STATS takes no arguments");
    }
    return request;
  }
  if (verb == "METRICS") {
    request.verb = Verb::kMetrics;
    if (!NextToken(payload, &pos).empty()) {
      return Status::InvalidArgument("METRICS takes no arguments");
    }
    return request;
  }
  if (verb == "INSPECT") {
    request.verb = Verb::kInspect;
    const std::string_view target = NextToken(payload, &pos);
    if (!target.empty()) {
      if (!IsValidId(target)) {
        return Status::InvalidArgument(
            "INSPECT target must be a query or tenant id (1-64 chars of "
            "[A-Za-z0-9_.-]), got '" +
            std::string(target) + "'");
      }
      request.inspect_target = std::string(target);
      if (!NextToken(payload, &pos).empty()) {
        return Status::InvalidArgument("INSPECT takes at most one target");
      }
    }
    return request;
  }
  if (verb == "BYE") {
    request.verb = Verb::kBye;
    if (!NextToken(payload, &pos).empty()) {
      return Status::InvalidArgument("BYE takes no arguments");
    }
    return request;
  }
  return Status::InvalidArgument("unknown verb '" + std::string(verb) + "'");
}

std::string FormatErr(const Status& status) {
  return "ERR " + std::string(StatusCodeToString(status.code())) + " " +
         status.message();
}

std::string FormatShed(std::string_view what, std::uint64_t retry_after_ticks,
                       std::string_view reason) {
  std::ostringstream os;
  os << "SHED " << what << " RETRY-AFTER " << retry_after_ticks << " "
     << reason;
  return os.str();
}

std::string FormatResult(std::string_view query_id, std::uint64_t tick_seq,
                         const engine::TickResult& result) {
  std::string out = "RESULT ";
  out.append(query_id);
  out.append(" seq=");
  out.append(std::to_string(tick_seq));
  out.append(" kind=");
  out.append(engine::QueryKindName(result.kind));
  out.append(result.converged ? " converged=1 lo=" : " converged=0 lo=");
  AppendRoundTripNumber(result.aggregate_bounds.lo, &out);
  out.append(" hi=");
  AppendRoundTripNumber(result.aggregate_bounds.hi, &out);
  if (result.winner_row.has_value()) {
    out.append(" winner=");
    out.append(std::to_string(*result.winner_row));
  }
  if (result.kind == engine::QueryKind::kSelect ||
      result.kind == engine::QueryKind::kSelectRange) {
    out.append(" rows=");
    AppendRowList(result.passing_rows, &out);
  }
  if (result.kind == engine::QueryKind::kTopK) {
    out.append(" top=");
    AppendRowList(result.top_rows, &out);
  }
  // New tokens go strictly before work= and only on approximate answers, so
  // exact-mode frames stay byte-identical for pre-approx clients.
  if (result.aggregate_bounds.approximate()) {
    const vao::Answer& answer = result.aggregate_bounds;
    out.append(" mode=approx conf=");
    AppendRoundTripNumber(answer.confidence, &out);
    out.append(" samples=");
    out.append(std::to_string(answer.sample_size));
    out.push_back('/');
    out.append(std::to_string(answer.population_size));
    out.append(" dwidth=");
    AppendRoundTripNumber(answer.deterministic_width, &out);
    out.append(" swidth=");
    AppendRoundTripNumber(answer.sampling_width, &out);
  }
  out.append(" work=");
  out.append(std::to_string(result.work_units));
  return out;
}

}  // namespace vaolib::server

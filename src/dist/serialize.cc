#include "dist/serialize.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace histest {
namespace {

/// Formats a double with round-trip precision.
std::string FmtExact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<double> ParseDouble(std::istringstream& in, const char* what) {
  double v = 0.0;
  if (!(in >> v)) {
    return Status::InvalidArgument(std::string("expected ") + what);
  }
  return v;
}

Result<uint64_t> ParseCount(std::istringstream& in, const char* what) {
  int64_t v = 0;
  if (!(in >> v) || v < 0) {
    return Status::InvalidArgument(std::string("expected non-negative ") +
                                   what);
  }
  return static_cast<uint64_t>(v);
}

Result<std::string> ExpectToken(std::istringstream& in,
                                const std::string& expected) {
  std::string token;
  if (!(in >> token) || token != expected) {
    return Status::InvalidArgument("expected token '" + expected + "', got '" +
                                   token + "'");
  }
  return token;
}

}  // namespace

std::string SerializeDistribution(const Distribution& d) {
  std::ostringstream out;
  out << "histest-dist v1\n";
  out << "n " << d.size() << "\n";
  for (size_t i = 0; i < d.size(); ++i) {
    if (i > 0) out << ' ';
    out << FmtExact(d[i]);
  }
  out << "\n";
  return out.str();
}

Result<Distribution> ParseDistribution(const std::string& text) {
  std::istringstream in(text);
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "histest-dist").status());
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "v1").status());
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "n").status());
  auto n = ParseCount(in, "domain size");
  HISTEST_RETURN_IF_ERROR(n.status());
  if (n.value() == 0) {
    return Status::InvalidArgument("domain size must be positive");
  }
  std::vector<double> pmf(n.value());
  for (auto& p : pmf) {
    auto v = ParseDouble(in, "probability");
    HISTEST_RETURN_IF_ERROR(v.status());
    p = v.value();
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::InvalidArgument("unexpected trailing content: " + trailing);
  }
  return Distribution::Create(std::move(pmf));
}

std::string SerializePiecewise(const PiecewiseConstant& pwc) {
  std::ostringstream out;
  out << "histest-pwc v1\n";
  out << "n " << pwc.domain_size() << " pieces " << pwc.NumPieces() << "\n";
  for (const auto& piece : pwc.pieces()) {
    out << piece.interval.end << ' ' << FmtExact(piece.value) << "\n";
  }
  return out.str();
}

Result<PiecewiseConstant> ParsePiecewise(const std::string& text) {
  std::istringstream in(text);
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "histest-pwc").status());
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "v1").status());
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "n").status());
  auto n = ParseCount(in, "domain size");
  HISTEST_RETURN_IF_ERROR(n.status());
  HISTEST_RETURN_IF_ERROR(ExpectToken(in, "pieces").status());
  auto pieces_count = ParseCount(in, "piece count");
  HISTEST_RETURN_IF_ERROR(pieces_count.status());
  std::vector<PiecewiseConstant::Piece> pieces;
  size_t cursor = 0;
  for (uint64_t p = 0; p < pieces_count.value(); ++p) {
    auto end = ParseCount(in, "piece end");
    HISTEST_RETURN_IF_ERROR(end.status());
    auto value = ParseDouble(in, "piece value");
    HISTEST_RETURN_IF_ERROR(value.status());
    pieces.push_back(PiecewiseConstant::Piece{
        Interval{cursor, static_cast<size_t>(end.value())}, value.value()});
    cursor = static_cast<size_t>(end.value());
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::InvalidArgument("unexpected trailing content: " + trailing);
  }
  auto pwc = PiecewiseConstant::Create(static_cast<size_t>(n.value()),
                                       std::move(pieces));
  HISTEST_RETURN_IF_ERROR(pwc.status());
  // A sampler normalizes by the total mass, so it must be finite and
  // positive (a sum of finite masses can still overflow).
  const double mass = pwc.value().TotalMass();
  if (!std::isfinite(mass) || mass <= 0.0) {
    return Status::InvalidArgument(
        "piecewise function needs a finite positive total mass");
  }
  return pwc;
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const int close_rc = std::fclose(f);
  if (written != contents.size() || close_rc != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::Ok();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  std::string contents;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, got);
  }
  const bool had_error = std::ferror(f) != 0;
  std::fclose(f);
  if (had_error) return Status::Internal("read error on " + path);
  return contents;
}

}  // namespace histest

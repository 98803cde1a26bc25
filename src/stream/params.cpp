#include "stream/params.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace ff::stream {

namespace {

bool whole_token(const std::string& text, const char* end) {
  return !text.empty() && errno == 0 && end == text.c_str() + text.size();
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

// ------------------------------------------------------------------ Params

void Params::set(const std::string& key, std::string value) {
  FF_CHECK_MSG(!key.empty(), context_ << ": empty parameter name");
  FF_CHECK_MSG(find(key) == nullptr,
               (context_.empty() ? std::string() : context_ + ": ")
                   << "duplicate parameter '" << key << "'");
  items_.emplace_back(key, std::move(value));
  used_.push_back(false);
}

bool Params::has(const std::string& key) const {
  // Deliberately a non-consuming probe: an element that checks for a key but
  // never reads it must still trip check_all_used()'s unknown-parameter
  // diagnostic, so has() must not mark the key used the way find() does.
  for (const auto& item : items_)
    if (item.first == key) return true;
  return false;
}

const std::string* Params::find(const std::string& key) const {
  for (std::size_t i = 0; i < items_.size(); ++i)
    if (items_[i].first == key) {
      used_[i] = true;
      return &items_[i].second;
    }
  return nullptr;
}

const std::string& Params::require(const std::string& key) const {
  const std::string* v = find(key);
  if (!v) fail(key, "required parameter is missing");
  return *v;
}

void Params::fail(const std::string& key, const std::string& what) const {
  std::ostringstream os;
  if (!context_.empty()) os << context_ << ": ";
  os << key << ": " << what;
  FF_CHECK_MSG(false, os.str());
  std::abort();  // unreachable: FF_CHECK_MSG(false, ...) always throws
}

std::string Params::get_string(const std::string& key) const { return require(key); }

std::string Params::get_string_or(const std::string& key,
                                  const std::string& fallback) const {
  const std::string* v = find(key);
  return v ? *v : fallback;
}

double Params::get_double(const std::string& key) const {
  return parse_double_value(context_ + ": " + key, require(key));
}

double Params::get_double_or(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  return v ? parse_double_value(context_ + ": " + key, *v) : fallback;
}

std::size_t Params::get_size(const std::string& key) const {
  return static_cast<std::size_t>(get_u64(key));
}

std::size_t Params::get_size_or(const std::string& key, std::size_t fallback) const {
  const std::string* v = find(key);
  return v ? static_cast<std::size_t>(parse_u64_value(context_ + ": " + key, *v))
           : fallback;
}

std::uint64_t Params::get_u64(const std::string& key) const {
  return parse_u64_value(context_ + ": " + key, require(key));
}

std::uint64_t Params::get_u64_or(const std::string& key, std::uint64_t fallback) const {
  const std::string* v = find(key);
  return v ? parse_u64_value(context_ + ": " + key, *v) : fallback;
}

int Params::get_int(const std::string& key) const {
  const std::string& text = require(key);
  // Trim like every other parser: strtol would skip leading whitespace on
  // its own but reject trailing whitespace via whole_token, accepting " 5"
  // while rejecting "5 " — inconsistent with get_u64/get_double.
  const std::string t = trim(text);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(t.c_str(), &end, 10);
  if (!whole_token(t, end) || v < INT_MIN || v > INT_MAX)
    fail(key, "expected an integer, got '" + text + "'");
  return static_cast<int>(v);
}

int Params::get_int_or(const std::string& key, int fallback) const {
  return has(key) ? get_int(key) : fallback;
}

bool Params::get_bool(const std::string& key) const {
  return parse_bool_value(context_ + ": " + key, require(key));
}

bool Params::get_bool_or(const std::string& key, bool fallback) const {
  const std::string* v = find(key);
  return v ? parse_bool_value(context_ + ": " + key, *v) : fallback;
}

Complex Params::get_complex(const std::string& key) const {
  return parse_complex_value(context_ + ": " + key, require(key));
}

Complex Params::get_complex_or(const std::string& key, Complex fallback) const {
  const std::string* v = find(key);
  return v ? parse_complex_value(context_ + ": " + key, *v) : fallback;
}

CVec Params::get_cvec(const std::string& key) const {
  return parse_cvec_value(context_ + ": " + key, require(key));
}

CVec Params::get_cvec_or(const std::string& key, CVec fallback) const {
  const std::string* v = find(key);
  return v ? parse_cvec_value(context_ + ": " + key, *v) : fallback;
}

void Params::check_all_used() const {
  for (std::size_t i = 0; i < items_.size(); ++i)
    if (!used_[i])
      fail(items_[i].first, "unknown parameter (no element field by this name)");
}

// ---------------------------------------------------------- value parsing

double parse_double_value(const std::string& context, const std::string& text) {
  const std::string t = trim(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  FF_CHECK_MSG(whole_token(t, end) && std::isfinite(v),
               context << ": expected a finite number, got '" << text << "'");
  return v;
}

bool parse_bool_value(const std::string& context, const std::string& text) {
  const std::string t = trim(text);
  if (t == "true" || t == "1") return true;
  if (t == "false" || t == "0") return false;
  FF_CHECK_MSG(false, context << ": expected true|false|1|0, got '" << text << "'");
  return false;
}

std::uint64_t parse_u64_value(const std::string& context, const std::string& text) {
  const std::string t = trim(text);
  // strtoull silently negates "-1"; reject signs here.
  FF_CHECK_MSG(!t.empty() && t[0] != '-' && t[0] != '+',
               context << ": expected a non-negative integer, got '" << text << "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  FF_CHECK_MSG(whole_token(t, end),
               context << ": expected a non-negative integer, got '" << text << "'");
  return static_cast<std::uint64_t>(v);
}

Complex parse_complex_value(const std::string& context, const std::string& text) {
  const std::string t = trim(text);
  if (!t.empty() && t.front() == '(') {
    FF_CHECK_MSG(t.back() == ')', context << ": unbalanced '(' in '" << text << "'");
    const std::string inner = t.substr(1, t.size() - 2);
    const auto comma = inner.find(',');
    FF_CHECK_MSG(comma != std::string::npos,
                 context << ": complex needs '(re,im)', got '" << text << "'");
    const double re = parse_double_value(context, inner.substr(0, comma));
    const double im = parse_double_value(context, inner.substr(comma + 1));
    return Complex{re, im};
  }
  return Complex{parse_double_value(context, t), 0.0};
}

std::vector<std::string> split_list_value(const std::string& context,
                                          const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')') {
      // A stray ')' would drive depth negative, silently mis-splitting the
      // rest of the list (a later top-level ',' looks nested); fail here
      // with the field-naming message instead of a confusing one downstream.
      FF_CHECK_MSG(depth > 0,
                   context << ": unbalanced ')' in list '" << text << "'");
      --depth;
    }
    if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
      continue;
    }
    cur.push_back(c);
  }
  FF_CHECK_MSG(depth == 0,
               context << ": unterminated '(' in list '" << text << "'");
  const std::string last = trim(cur);
  if (!last.empty() || !out.empty()) out.push_back(last);
  return out;
}

CVec parse_cvec_value(const std::string& context, const std::string& text) {
  CVec out;
  for (const std::string& entry : split_list_value(context, text)) {
    FF_CHECK_MSG(!entry.empty(), context << ": empty entry in list '" << text << "'");
    out.push_back(parse_complex_value(context, entry));
  }
  return out;
}

// ------------------------------------------------------------- formatting

std::string format_double(double v) {
  // %.17g (max_digits10) round-trips every double exactly through strtod,
  // which is what lets a printed graph rebuild a bit-identical element.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_complex(Complex v) {
  // Appended piecewise: the chained operator+ temporaries draw a false GCC 12
  // -Wrestrict at -O3.
  std::string out = "(";
  out += format_double(v.real());
  out += ',';
  out += format_double(v.imag());
  out += ')';
  return out;
}

std::string format_cvec(CSpan v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += format_complex(v[i]);
  }
  return out;
}

}  // namespace ff::stream

#include "scion/isd_asn.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace upin::scion {

using util::ErrorCode;
using util::Result;

namespace {

void append_number(std::string& out, std::uint64_t value, int base = 10) {
  char digits[24];
  const char* end =
      std::to_chars(digits, digits + sizeof digits, value, base).ptr;
  out.append(digits, static_cast<std::size_t>(end - digits));
}

}  // namespace

std::string IsdAsn::to_string() const {
  std::string out;
  out.reserve(24);
  append_number(out, isd_);
  out.push_back('-');
  if (asn_ < (1ULL << 32)) {
    append_number(out, asn_);
    return out;
  }
  // Three colon-separated 16-bit hex groups, SCION style (no padding).
  append_number(out, (asn_ >> 32) & 0xffff, 16);
  out.push_back(':');
  append_number(out, (asn_ >> 16) & 0xffff, 16);
  out.push_back(':');
  append_number(out, asn_ & 0xffff, 16);
  return out;
}

Result<IsdAsn> IsdAsn::parse(std::string_view text) {
  const std::size_t dash = text.find('-');
  if (dash == std::string_view::npos) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "ISD-AS must look like <isd>-<asn>"};
  }
  const auto isd = util::parse_uint(text.substr(0, dash));
  if (!isd.has_value() || *isd > 0xffff) {
    return util::Error{ErrorCode::kInvalidArgument, "bad ISD number"};
  }
  const std::string_view asn_text = text.substr(dash + 1);
  if (asn_text.find(':') == std::string_view::npos) {
    const auto asn = util::parse_uint(asn_text);
    if (!asn.has_value()) {
      return util::Error{ErrorCode::kInvalidArgument, "bad decimal ASN"};
    }
    return IsdAsn(static_cast<std::uint16_t>(*isd), *asn);
  }
  const std::vector<std::string> groups = util::split(asn_text, ':');
  if (groups.size() != 3) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "hex ASN needs three groups"};
  }
  std::uint64_t asn = 0;
  for (const std::string& group : groups) {
    const auto part = util::parse_uint(group, 16);
    if (!part.has_value() || *part > 0xffff) {
      return util::Error{ErrorCode::kInvalidArgument, "bad hex ASN group"};
    }
    asn = (asn << 16) | *part;
  }
  return IsdAsn(static_cast<std::uint16_t>(*isd), asn);
}

std::string SnetAddress::to_string() const {
  return ia.to_string() + ",[" + host + "]";
}

Result<SnetAddress> SnetAddress::parse(std::string_view text) {
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "address must look like <isd-as>,[<host>]"};
  }
  Result<IsdAsn> ia = IsdAsn::parse(util::trim(text.substr(0, comma)));
  if (!ia.ok()) return Result<SnetAddress>(ia.error());

  std::string_view host = util::trim(text.substr(comma + 1));
  if (host.size() < 3 || host.front() != '[' || host.back() != ']') {
    return util::Error{ErrorCode::kInvalidArgument,
                       "host must be bracketed: [a.b.c.d]"};
  }
  host = host.substr(1, host.size() - 2);
  return SnetAddress{ia.value(), std::string(host)};
}

}  // namespace upin::scion

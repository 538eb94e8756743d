#include "query/embedding.h"

#include <cassert>
#include <cstring>

namespace gradoop::query {

namespace {

uint64_t ReadUint64(const std::string& data, size_t pos) {
  uint64_t v;
  std::memcpy(&v, data.data() + pos, 8);
  return v;
}

uint32_t ReadUint32(const std::string& data, size_t pos) {
  uint32_t v;
  std::memcpy(&v, data.data() + pos, 4);
  return v;
}

void AppendUint64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendUint32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

}  // namespace

bool Embedding::IsPathEntry(int column) const {
  assert(column >= 0 && column < NumIdEntries());
  return static_cast<uint8_t>(id_data_[column * kEntryWidth]) == kPathFlag;
}

uint64_t Embedding::PayloadAt(int column) const {
  assert(column >= 0 && column < NumIdEntries());
  return ReadUint64(id_data_, column * kEntryWidth + 1);
}

uint64_t Embedding::IdAt(int column) const {
  assert(!IsPathEntry(column));
  return PayloadAt(column);
}

std::vector<uint64_t> Embedding::PathAt(int column) const {
  assert(IsPathEntry(column));
  const size_t offset = PayloadAt(column);
  assert(offset + 4 <= path_data_.size());
  const uint32_t len = ReadUint32(path_data_, offset);
  std::vector<uint64_t> ids(len);
  for (uint32_t i = 0; i < len; ++i) {
    ids[i] = ReadUint64(path_data_, offset + 4 + 8 * i);
  }
  return ids;
}

void Embedding::AppendId(uint64_t id) {
  id_data_.push_back(static_cast<char>(kIdFlag));
  AppendUint64(&id_data_, id);
}

void Embedding::AppendPath(const std::vector<uint64_t>& via_ids) {
  const uint64_t offset = path_data_.size();
  id_data_.push_back(static_cast<char>(kPathFlag));
  AppendUint64(&id_data_, offset);
  AppendUint32(&path_data_, static_cast<uint32_t>(via_ids.size()));
  for (uint64_t id : via_ids) AppendUint64(&path_data_, id);
}

bool Embedding::ContainsIdAt(uint64_t id,
                             const std::vector<int>& columns) const {
  for (int c : columns) {
    if (!IsPathEntry(c) && PayloadAt(c) == id) return true;
  }
  return false;
}

bool Embedding::PathContains(uint64_t id,
                             const std::vector<int>& path_columns,
                             bool edges) const {
  // Paths store alternating identifiers starting with an edge:
  // e1, v1, e2, v2, ..., ek — edges at even indices, vertices at odd.
  for (int c : path_columns) {
    if (!IsPathEntry(c)) continue;
    const size_t offset = PayloadAt(c);
    const uint32_t len = ReadUint32(path_data_, offset);
    for (uint32_t i = edges ? 0 : 1; i < len; i += 2) {
      if (ReadUint64(path_data_, offset + 4 + 8 * i) == id) return true;
    }
  }
  return false;
}

epgm::PropertyValue Embedding::PropertyAt(int index) const {
  assert(index >= 0 && index < num_properties_);
  size_t pos = 0;
  for (int i = 0; i < index; ++i) {
    const uint32_t len = ReadUint32(prop_data_, pos);
    pos += 4 + len;
  }
  const uint32_t len = ReadUint32(prop_data_, pos);
  (void)len;
  size_t value_pos = pos + 4;
  auto decoded = epgm::PropertyValue::DecodeFrom(prop_data_, &value_pos);
  assert(decoded.ok());
  return std::move(decoded).value();
}

void Embedding::AppendProperty(const epgm::PropertyValue& value) {
  AppendUint32(&prop_data_, static_cast<uint32_t>(value.SerializedSize()));
  value.EncodeTo(&prop_data_);
  ++num_properties_;
}

void Embedding::EncodeTo(std::string* out) const {
  AppendUint32(out, static_cast<uint32_t>(id_data_.size()));
  out->append(id_data_);
  AppendUint32(out, static_cast<uint32_t>(path_data_.size()));
  out->append(path_data_);
  AppendUint32(out, static_cast<uint32_t>(prop_data_.size()));
  out->append(prop_data_);
}

Result<Embedding> Embedding::DecodeFrom(const std::string& data,
                                        size_t* pos) {
  auto read_chunk = [&data, pos](std::string* dst) -> bool {
    if (*pos + 4 > data.size()) return false;
    const uint32_t len = ReadUint32(data, *pos);
    *pos += 4;
    if (*pos + len > data.size()) return false;
    dst->assign(data, *pos, len);
    *pos += len;
    return true;
  };
  Embedding e;
  if (!read_chunk(&e.id_data_) || !read_chunk(&e.path_data_) ||
      !read_chunk(&e.prop_data_)) {
    return Status::InvalidArgument("truncated embedding");
  }
  if (e.id_data_.size() % kEntryWidth != 0) {
    return Status::InvalidArgument("corrupt embedding id data");
  }
  // Recount the length-prefixed property entries.
  size_t p = 0;
  int count = 0;
  while (p < e.prop_data_.size()) {
    if (p + 4 > e.prop_data_.size()) {
      return Status::InvalidArgument("corrupt embedding property data");
    }
    const uint32_t len = ReadUint32(e.prop_data_, p);
    p += 4 + len;
    ++count;
  }
  if (p != e.prop_data_.size()) {
    return Status::InvalidArgument("corrupt embedding property data");
  }
  e.num_properties_ = count;
  return e;
}

Embedding Embedding::Merge(const Embedding& left, const Embedding& right) {
  Embedding out;
  out.id_data_.reserve(left.id_data_.size() + right.id_data_.size());
  out.id_data_ = left.id_data_;
  // Right id entries append directly; PATH offsets rebase by the left
  // pathData length (bounded by the number of right id entries).
  const uint64_t rebase = left.path_data_.size();
  const int right_entries = right.NumIdEntries();
  for (int c = 0; c < right_entries; ++c) {
    const uint8_t flag =
        static_cast<uint8_t>(right.id_data_[c * kEntryWidth]);
    out.id_data_.push_back(static_cast<char>(flag));
    uint64_t payload = ReadUint64(right.id_data_, c * kEntryWidth + 1);
    if (flag == kPathFlag) payload += rebase;
    AppendUint64(&out.id_data_, payload);
  }
  out.path_data_ = left.path_data_ + right.path_data_;
  out.prop_data_ = left.prop_data_ + right.prop_data_;
  out.num_properties_ = left.num_properties_ + right.num_properties_;
  return out;
}

std::string Embedding::ToString() const {
  std::string out = "[";
  for (int c = 0; c < NumIdEntries(); ++c) {
    if (c > 0) out += ", ";
    if (IsPathEntry(c)) {
      out += "path(";
      const auto ids = PathAt(c);
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(ids[i]);
      }
      out += ")";
    } else {
      out += std::to_string(IdAt(c));
    }
  }
  if (num_properties_ > 0) {
    out += " | ";
    for (int i = 0; i < num_properties_; ++i) {
      if (i > 0) out += ", ";
      out += PropertyAt(i).ToString();
    }
  }
  out += "]";
  return out;
}

}  // namespace gradoop::query

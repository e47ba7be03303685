// ChunkedVector: an append-only sequence stored in fixed-size chunks.
//
// The observation logs (TraceLog, SpanLog, DecisionLog) grow by one record
// per fact for the whole run.  A std::vector doubles: up to half of its
// capacity sits unused, and each growth holds the old and the new buffer at
// once while it copies every element across.  A ChunkedVector never
// reallocates: a full chunk is never touched again, appending allocates at
// most one new chunk, the unused space is the tail of the last chunk, and
// references to elements stay valid until clear().  A chunk holds the
// largest power-of-two count of elements that fits in 16 KiB, so indexing
// is a shift and a mask.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace smr {

template <typename T>
class ChunkedVector {
 public:
  static constexpr std::size_t kChunkElements =
      std::bit_floor(std::max<std::size_t>(1, (16 * 1024) / sizeof(T)));

  template <typename V>
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iterator() = default;
    Iterator(T* const* chunks, std::size_t index) : chunks_(chunks), index_(index) {}

    reference operator*() const { return chunks_[index_ >> kShift][index_ & kMask]; }
    pointer operator->() const { return &**this; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const Iterator& other) const { return index_ == other.index_; }

   private:
    T* const* chunks_ = nullptr;
    std::size_t index_ = 0;
  };
  using iterator = Iterator<T>;
  using const_iterator = Iterator<const T>;

  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;
  ChunkedVector(ChunkedVector&& other) noexcept
      : chunks_(std::exchange(other.chunks_, {})), size_(std::exchange(other.size_, 0)) {}
  ChunkedVector& operator=(ChunkedVector&& other) noexcept {
    if (this != &other) {
      clear();
      chunks_ = std::exchange(other.chunks_, {});
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~ChunkedVector() { clear(); }

  T& push_back(T value) {
    if (size_ == chunks_.size() * kChunkElements) {
      chunks_.push_back(std::allocator<T>().allocate(kChunkElements));
    }
    T* slot = chunks_[size_ >> kShift] + (size_ & kMask);
    std::construct_at(slot, std::move(value));
    ++size_;
    return *slot;
  }

  /// Destroys every element and releases every chunk.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(&(*this)[i]);
    for (T* chunk : chunks_) std::allocator<T>().deallocate(chunk, kChunkElements);
    chunks_.clear();
    size_ = 0;
  }

  T& operator[](std::size_t i) { return chunks_[i >> kShift][i & kMask]; }
  const T& operator[](std::size_t i) const { return chunks_[i >> kShift][i & kMask]; }
  const T& back() const { return (*this)[size_ - 1]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return {chunks_.data(), 0}; }
  iterator end() { return {chunks_.data(), size_}; }
  const_iterator begin() const { return {chunks_.data(), 0}; }
  const_iterator end() const { return {chunks_.data(), size_}; }

  /// Heap bytes held: every chunk in full plus the chunk index.
  std::size_t memory_bytes() const {
    return chunks_.size() * kChunkElements * sizeof(T) + chunks_.capacity() * sizeof(T*);
  }

 private:
  static constexpr std::size_t kShift = std::countr_zero(kChunkElements);
  static constexpr std::size_t kMask = kChunkElements - 1;

  std::vector<T*> chunks_;
  std::size_t size_ = 0;
};

}  // namespace smr

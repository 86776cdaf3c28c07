#include "nvm/pmem.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace detect::nvm {

bool persistent_base::image_clean() const {
  const std::size_t n = image_size();
  if (n <= 64) {
    std::uint8_t cur[64];
    std::uint8_t persisted[64];
    save_raw(cur, persisted);
    return std::memcmp(cur, persisted, n) == 0;
  }
  std::vector<std::uint8_t> cur(n);
  std::vector<std::uint8_t> persisted(n);
  save_raw(cur.data(), persisted.data());
  return cur == persisted;
}

cell_image persistent_base::save_image() const {
  cell_image img;
  img.cur.resize(image_size());
  img.persisted.resize(image_size());
  save_raw(img.cur.data(), img.persisted.data());
  return img;
}

void persistent_base::load_image(const cell_image& img) {
  if (img.cur.size() != image_size() || img.persisted.size() != image_size()) {
    throw std::invalid_argument(
        "pmem: cell image of " + std::to_string(img.cur.size()) +
        " bytes does not fit a cell of " + std::to_string(image_size()) +
        " bytes");
  }
  load_raw(img.cur.data(), img.persisted.data());
}

pmem_image save_image(const std::vector<persistent_base*>& cells) {
  pmem_image image;
  image.reserve(cells.size());
  for (const persistent_base* c : cells) image.push_back(c->save_image());
  return image;
}

void load_image(const std::vector<persistent_base*>& cells,
                const pmem_image& image) {
  if (cells.size() != image.size()) {
    throw std::invalid_argument(
        "pmem: image carries " + std::to_string(image.size()) +
        " cells but the target object attached " +
        std::to_string(cells.size()) +
        " — layouts must come from the same kind and params");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i]->load_image(image[i]);
  }
}

pmem_domain& pmem_domain::global() {
  static pmem_domain dom;
  return dom;
}

void pmem_domain::crash_reset() noexcept {
  const auto held = lock();
  stats_.add_crash();
  last_crash_lost_ = false;
  if (persist_ == persist_model::buffered) {
    // Journal invariant: under buffered persistency every cell whose cached
    // value diverges from its persisted image registered via note_dirty()
    // (stores and migration loads are the only divergence sources, and both
    // register). Settling the journal alone makes the crash O(dirty cells),
    // not O(all cells in the domain).
    for (persistent_base* c : journal_) {
      if (!last_crash_lost_ && !c->image_clean()) last_crash_lost_ = true;
      c->revert_to_persisted();
      c->journaled_ = false;
    }
    journal_.clear();
    return;
  }
  if (model_ == cache_model::private_cache) {
    return;  // strict private-cache: NVM survives verbatim
  }
  for (persistent_base* c = head_; c != nullptr; c = c->next_) {
    c->revert_to_persisted();
  }
}

void pmem_domain::drain_journal() noexcept {
  const auto held = lock();
  for (persistent_base* c : journal_) {
    c->persist_now();
    c->journaled_ = false;
  }
  journal_.clear();
}

void pmem_domain::persist_all() noexcept {
  const auto held = lock();
  for (persistent_base* c = head_; c != nullptr; c = c->next_) {
    c->persist_now();
  }
  for (persistent_base* c : journal_) c->journaled_ = false;
  journal_.clear();
}

void pmem_domain::attach(persistent_base& cell) {
  const auto held = lock();
  cell.prev_ = nullptr;
  cell.next_ = head_;
  if (head_ != nullptr) head_->prev_ = &cell;
  head_ = &cell;
  // attach() runs from the concrete cell's constructor body (pcell/pvar),
  // so the image_size() dispatch is safe here — and symmetric in detach().
  count(cells_attached_, 1);
  count(bytes_attached_, static_cast<std::int64_t>(cell.image_size()));
  if (attach_sink_ != nullptr) attach_sink_->push_back(&cell);
}

void pmem_domain::set_attach_recorder(
    std::vector<persistent_base*>* sink) noexcept {
  const auto held = lock();
  attach_sink_ = sink;
}

void pmem_domain::detach(persistent_base& cell) noexcept {
  const auto held = lock();
  count(cells_attached_, -1);
  count(bytes_attached_, -static_cast<std::int64_t>(cell.image_size()));
  if (cell.journaled_) {
    auto it = std::find(journal_.begin(), journal_.end(), &cell);
    if (it != journal_.end()) {
      *it = journal_.back();
      journal_.pop_back();
    }
    cell.journaled_ = false;
  }
  if (cell.prev_ != nullptr) {
    cell.prev_->next_ = cell.next_;
  } else if (head_ == &cell) {
    head_ = cell.next_;
  }
  if (cell.next_ != nullptr) cell.next_->prev_ = cell.prev_;
  cell.prev_ = nullptr;
  cell.next_ = nullptr;
}

}  // namespace detect::nvm

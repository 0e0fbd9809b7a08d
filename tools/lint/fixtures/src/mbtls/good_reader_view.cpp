// Lint fixture (good twin): handle each record view before the reader's
// next feed(), and copy out what must outlive it.
#include <optional>
#include <vector>

namespace fixture {

using Bytes = std::vector<unsigned char>;
struct MutableByteView {};
struct RecordView {
  MutableByteView raw;
  MutableByteView body() const;
};

struct RecordReader {
  void feed(const Bytes& data);
  std::optional<RecordView> next_view();
};

void open_in_place(MutableByteView body);
Bytes to_bytes(MutableByteView v);

class Relay {
 public:
  void on_read(const Bytes& data) {
    reader_.feed(data);
    while (auto rec = reader_.next_view()) {
      open_in_place(rec->body());  // used before the next feed: fine
      backlog_.push_back(to_bytes(rec->raw));  // owning copy
    }
    reader_.feed(data);
    auto rec = reader_.next_view();  // a fresh view after the feed
    open_in_place(rec->body());
  }

 private:
  RecordReader reader_;
  std::vector<Bytes> backlog_;
};

}  // namespace fixture

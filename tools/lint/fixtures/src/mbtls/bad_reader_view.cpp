// Lint fixture: a record view from a reader's next_view() lies in that
// reader's buffer, which its next feed() reuses. `dangling-span` must trip
// when such a view escapes or outlives that feed().
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

class Relay {
 public:
  void on_read(const Bytes& data) {
    reader_.feed(data);
    auto rec = reader_.next_view();  // a view into reader_'s buffer
    held_ = rec->body();  // line 28: stored into a member — dangles
    backlog_.push_back(rec->raw);  // line 29: stored into a container
    reader_.feed(data);  // the next feed: `rec` is now stale
    open_in_place(rec->body());  // line 31: use after the feed
  }

  MutableByteView peek() {
    while (auto rec = reader_.next_view()) {
      return rec->raw;  // line 36: returning a view the next feed reuses
    }
    return {};
  }

 private:
  RecordReader reader_;
  MutableByteView held_;
  std::vector<MutableByteView> backlog_;
};

}  // namespace fixture

// Lint fixture (good twin): handle each record view inside the consume()
// callback, and copy out what must outlive it.
#include <cstddef>
#include <vector>

namespace fixture {

using Bytes = std::vector<unsigned char>;
struct ByteView {};
struct RecordView {
  ByteView raw;
  ByteView body() const;
};

struct RecordReader {
  template <typename F>
  std::size_t consume(ByteView& data, F&& on_record);
};

void handle(ByteView record);
Bytes to_bytes(ByteView v);

class Intake {
 public:
  void on_read(ByteView data) {
    Bytes last;
    reader_.consume(data, [&](RecordView rec) {
      const ByteView body = rec.body();  // the callback's own local
      handle(body);  // used during the call: fine
      backlog_.push_back(to_bytes(rec.raw));  // owning copy
      last = to_bytes(rec.raw);
      return true;
    });
    backlog_.push_back(last);
  }

  // A throwing callback ends consume() at once: the record in hand is still
  // good in the catch.
  void relay_on_error(ByteView data) {
    ByteView in_hand;
    try {
      reader_.consume(data, [&](RecordView rec) {
        in_hand = rec.raw;
        handle(in_hand);
        return true;
      });
    } catch (...) {
      handle(in_hand);
    }
  }

 private:
  RecordReader reader_;
  std::vector<Bytes> backlog_;
};

}  // namespace fixture

// Lint fixture: the record view a reader's consume() hands its callback lies
// in the read that carried it (or in the reader's buffer) and dies when the
// callback returns. `dangling-span` must trip when such a view is stored
// into a member or a container, or used after the consume() call.
#include <cstddef>
#include <vector>

namespace fixture {

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

class Intake {
 public:
  void on_read(ByteView data) {
    ByteView last;
    reader_.consume(data, [&](RecordView rec) {
      held_ = rec.body();  // line 28: stored into a member
      backlog_.push_back(rec.raw);  // line 29: stored into a container
      last = rec.raw;  // a local of on_read: outlives the callback
      return true;
    });
    handle(last);  // line 33: used after the callback returned
  }

 private:
  RecordReader reader_;
  ByteView held_;
  std::vector<ByteView> backlog_;
};

}  // namespace fixture

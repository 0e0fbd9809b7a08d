// Lint fixture: views into reusable scratch buffers must trip
// `dangling-span` when they escape the batch or survive a recycle.
#include <vector>

namespace fixture {

using Bytes = std::vector<unsigned char>;
struct ByteView {
  ByteView() = default;
  explicit ByteView(const Bytes& b);
};

struct RecordReader {
  void copy_next(Bytes& out);
};

void parse_header(ByteView v);

class Worker {
 public:
  void run_batch(RecordReader& reader) {
    reader.copy_next(raw_scratch_);
    ByteView header = ByteView(raw_scratch_);  // a view into the scratch
    held_view_ = header;  // line 24: stored into a member — dangles
    pending_.push_back(header);  // line 25: stored into a container
    raw_scratch_.clear();  // recycle: `header` is now stale
    parse_header(header);  // line 27: use after the recycle
  }

  ByteView peek(Bytes& scratch_buf) {
    return ByteView(scratch_buf);  // line 31: returning a span into scratch
  }

 private:
  Bytes raw_scratch_;
  ByteView held_view_;
  std::vector<ByteView> pending_;
};

}  // namespace fixture

// Lint fixture (good twin): copy bytes out of the scratch before the next
// batch recycle — owning copies survive; in-batch views are fine.
#include <vector>

namespace fixture {

using Bytes = std::vector<unsigned char>;
struct ByteView {
  ByteView() = default;
  explicit ByteView(const Bytes& b);
  const unsigned char* begin() const;
  const unsigned char* end() const;
};

struct RecordReader {
  void copy_next(Bytes& out);
};

void parse_header(ByteView v);
void parse_copy(const Bytes& b);

class Worker {
 public:
  void run_batch(RecordReader& reader) {
    reader.copy_next(raw_scratch_);
    ByteView header = ByteView(raw_scratch_);
    parse_header(header);  // used within the batch: fine
    held_copy_ = Bytes(header.begin(), header.end());  // owning copy
    raw_scratch_.clear();
    parse_copy(held_copy_);  // the copy survives the recycle
  }

 private:
  Bytes raw_scratch_;
  Bytes held_copy_;
};

}  // namespace fixture

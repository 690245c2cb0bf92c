// Fixture: a class whose serializer call sequence no longer
// matches the committed registry baseline while the checkpoint
// version stayed put (the paired registry JSON records the old
// [u32] sequence; run_lint_tests.py stamps it with the live
// kCheckpointVersion, so the case holds at any version). An
// old-format file
// would be misread with no way to tell; must be flagged with the
// bump-the-version remedy.
#include "stubs.hh"

namespace tempest
{

class DriftClass
{
  public:
    void
    saveState(StateWriter& w) const
    {
        w.u32(count_);
        w.u64(extra_); // grew a field; version not bumped
    }

    void
    loadState(StateReader& r)
    {
        count_ = r.u32();
        extra_ = r.u64();
    }

  private:
    std::uint32_t count_ = 0;
    std::uint64_t extra_ = 0;
};

} // namespace tempest

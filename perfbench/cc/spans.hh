/**
 * @file
 * In-memory span recorder for the traced run. A span records its
 * name, layer, start, end, parent and the id of the op (query, fleet
 * run, serving run) it belongs to. Spans are only recorded around
 * calls into the library's public API; nothing inside the library is
 * instrumented.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span. */
struct SpanRec
{
    const char *name = "";
    const char *layer = "";
    double start = 0.0; //!< host wall seconds
    double end = 0.0;
    int parent = -1;    //!< index of the enclosing span, -1 = root
    std::uint64_t op = 0;
};

/** Self and total time of one layer, summed over its spans. */
struct LayerTime
{
    std::string layer;
    std::uint64_t calls = 0;
    double totalSeconds = 0.0; //!< outermost spans of the layer only
    double selfSeconds = 0.0;  //!< minus time covered by children
};

/** Records nested spans of one thread. */
class Tracer
{
  public:
    /** Open a span under the innermost open one. @return its id. */
    int open(const char *name, const char *layer);
    /** Close span @p id (must be the innermost open span). */
    void close(int id);
    /** Id stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    const std::vector<SpanRec> &spans() const { return spans_; }

    /** Each span's duration minus the time its child spans cover,
     *  by span index. */
    std::vector<double> selfSeconds() const;

    /** Per-layer self/total time, sorted by self time, largest first. */
    std::vector<LayerTime> layerTimes() const;

    /** Write the spans as Chrome trace JSON to @p path. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
    std::uint64_t op_ = 0;
};

/** RAII span; a null tracer records nothing and reads no clock. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, const char *layer)
        : tracer_(tracer), id_(tracer ? tracer->open(name, layer) : -1)
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

/**
 * @file
 * Aligned text-table and CSV rendering for bench/example report output.
 *
 * Every paper section prints its figure/table as (1) a human-readable
 * aligned table and (2) a machine-readable CSV block so downstream plotting
 * can regenerate the paper's artwork.
 */

#ifndef HETSIM_COMMON_TABLE_HH
#define HETSIM_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace hetsim
{

class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a fully-formed row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format doubles with @p precision digits. */
    static std::string num(double v, int precision = 3);
    static std::string percent(double fraction, int precision = 1);

    /** Render with padded columns and a rule under the header. */
    std::string render() const;

    /** Render as CSV (headers + rows). */
    std::string renderCsv() const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace hetsim

#endif // HETSIM_COMMON_TABLE_HH

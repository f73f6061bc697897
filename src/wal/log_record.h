#ifndef RDA_WAL_LOG_RECORD_H_
#define RDA_WAL_LOG_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace rda {

// Log record types. Page logging uses whole-page before/after images;
// record logging (paper Section 5.3) uses record-granular images addressed
// by (page, slot).
enum class LogRecordType : uint8_t {
  // Begin-of-transaction. Written "to the log file ... before it writes
  // back any modified pages" (paper Section 4.3).
  kBot = 1,
  // End-of-transaction (commit point).
  kCommit = 2,
  // Runtime abort fully undone; recovery can skip this transaction.
  kAbortComplete = 3,
  // UNDO information: page payload (page logging) or record bytes (record
  // logging) as they were before the update, plus the captured page header
  // (pageLSN semantics for idempotent recovery).
  kBeforeImage = 4,
  // REDO information for not-FORCE algorithms: page payload or record bytes
  // after the update.
  kAfterImage = 5,
  // Head of the TWIST-style chain of pages propagated without UNDO logging
  // (paper Section 4.3): names the most recently unlogged-stolen page; the
  // chain continues through the data pages' embedded chain_prev links.
  kChainHead = 6,
  // Action-consistent checkpoint: all modified buffer pages have been
  // propagated; lists the transactions active at the checkpoint. Always a
  // restart point (see LogRecord::restart_lsn).
  kCheckpoint = 7,
};

// One log record. A plain struct; fields not used by a given type stay at
// their defaults and serialize compactly.
struct LogRecord {
  LogRecordType type = LogRecordType::kBot;
  TxnId txn = kInvalidTxnId;
  // Assigned by the LogManager at append time (byte offset of the frame).
  Lsn lsn = kInvalidLsn;
  PageId page = kInvalidPageId;
  RecordSlot slot = 0;
  // True for record-granular images (record logging mode).
  bool record_granular = false;
  // Captured data-page header for before-images.
  PageHeader page_header;
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
  std::vector<TxnId> active_txns;  // kCheckpoint.
  PageId chain_head = kInvalidPageId;  // kChainHead.
  // Restart point (every kCheckpoint, and every kCommit under FORCE, which
  // is a TOC checkpoint): restart recovery reads the log from the newest
  // such record's restart_lsn on. Everything logged before it belongs to
  // finished transactions whose pages are on disk. kInvalidLsn = not a
  // restart point; only restart points serialize these two fields.
  Lsn restart_lsn = kInvalidLsn;
  // Of a restart point: above every transaction id that had logged a BOT
  // when the record was written, so restart never hands out such an id
  // again, even one whose records all precede restart_lsn.
  TxnId next_txn = kInvalidTxnId;

  bool operator==(const LogRecord&) const = default;
};

// Serializes `record` (without framing; the LogManager adds length + CRC).
std::vector<uint8_t> EncodeLogRecord(const LogRecord& record);

// Appends the serialized record to `*out` without clearing it — the
// LogManager encodes straight into its append buffer, so a log append
// allocates nothing once the buffer has warmed up.
void EncodeLogRecordTo(const LogRecord& record, std::vector<uint8_t>* out);

// Parses a serialized record. Returns kCorruption on malformed input.
Result<LogRecord> DecodeLogRecord(const uint8_t* data, size_t size);

}  // namespace rda

#endif  // RDA_WAL_LOG_RECORD_H_

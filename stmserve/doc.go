// Package stmserve is an STM-backed pipelined network server: a small
// RESP-like TCP protocol in which every command — and every MULTI/EXEC
// group of commands — executes as one atomic transaction against a shared
// stm.Memory. It is the repository's end-to-end demonstration that the
// Shavit–Touitou machinery composes into a real concurrent system: the
// keyspace is an stmds.Map, named queues are stmds.Queue, named priority
// queues are stmds.PQ, blocking pops park on DTx.Retry, and replies are
// flushed by a DTx.OnCommit action so no reply reaches the wire before
// the state it reports is installed.
//
// # Commands
//
// Requests are inline ("VERB arg arg\r\n") or RESP arrays
// ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"), freely mixed and pipelined. Replies
// use the RESP vocabulary: +simple, -ERR message, :integer, $bulk ($-1
// nil), *array (*-1 nil).
//
//	PING                     +PONG
//	ECHO msg                 $msg
//	GET k                    $value or $-1
//	SET k v                  +OK
//	DEL k                    :1 if removed, :0 otherwise
//	EXISTS k                 :1 or :0
//	INCR k / DECR k          :new value (missing key counts from 0)
//	INCRBY k n               :new value (n may be negative)
//	QPUSH q v                :queue length after the push
//	QPOP q                   $oldest element or $-1
//	QLEN q                   :length
//	BQPOP q [timeout_ms]     $element, blocking while q is empty
//	ZADD z prio v            :1 (prio is an unsigned integer)
//	ZPOP z                   *2 [:prio, $element] of the minimum, or *-1
//	ZLEN z                   :length
//	MULTI ... EXEC           queue commands, run them as ONE transaction
//	DISCARD                  drop the queued group
//	QUIT                     +OK, then the connection closes
//
// Keys, queue names, and values are capped at 64 bytes (wire.go); queues
// and priority queues are created on first write reference and are
// server-global. A malformed queued command turns EXEC into an EXECABORT
// error and runs nothing, after Redis. BQPOP inside MULTI degrades to a
// non-blocking pop.
//
// # Capacity
//
// The keyspace starts with a table sized for Config.KeyspaceHint and
// doubles at 3/4 occupancy while the next table fits in the
// Config.MemoryWords words left (outgrown tables are never freed; queues
// share the words); the last table can fill completely. So a default
// server holds at most 16,384 keys: its 8,192- and 16,384-slot tables take
// 466,968 words, and a 32,768-slot table would need 622,592 more. Past
// that, a SET of a new key probes every slot before it replies ERR
// keyspace full. A resize never refuses one: every keyspace write moves a
// chunk of it, so the new table cannot fill before the old one is drained
// (DESIGN.md §10). The batch carries those moves, so while a resize is in
// flight a batch of writes costs several times as much.
//
// # Execution model
//
// Each connection's byte stream is parsed and *planned* outside any
// transaction — protocol state (MULTI), queue-registry resolution, arity
// and size checks all happen there — and then maximal runs of
// non-blocking commands execute as ONE dynamic transaction each: a
// pipelined batch of N commands costs one commit, not N. The speculative
// body is a pure function of the plan: it stages replies into
// connection-owned scratch above a watermark it rewinds on re-execution,
// and registers the flush with DTx.OnCommit. Steady-state single-key
// commands run allocation-free end to end (TestAllocsSteadyStateFeed),
// and the benchmark of record's kv-* workloads drive the whole server over
// loopback TCP.
//
// Cross-connection atomicity is the STM's: a MULTI transfer is invisible
// in progress to every other client, on either commit engine
// (stm.Config.Engine selects ST or TL2). See DESIGN.md §13 for the
// architecture discussion and cmd/stmserve for the runnable binary.
package stmserve

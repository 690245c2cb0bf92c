/**
 * @file
 * Sweep-fabric worker loop (DESIGN.md §15).
 *
 * A worker is a child process holding one end of a Unix socketpair
 * to the coordinator. It announces itself with a hello message,
 * then executes jobs one at a time until it reads a shutdown
 * message or EOF (coordinator death — a worker never outlives its
 * coordinator).
 *
 * Workers are intentionally synchronous and stateless between
 * jobs: each job message carries everything needed to reproduce
 * the simulation (dotted config keys, exact seed, cycle budget,
 * snapshot path), so any job can run on any worker and a dead
 * worker's shards can be re-queued onto survivors verbatim. A
 * worker executes a job with runJob(), the job function of the
 * thread backend too.
 */

#ifndef TEMPEST_SIM_FABRIC_WORKER_HH
#define TEMPEST_SIM_FABRIC_WORKER_HH

#include "sim/fabric/fabric_protocol.hh"

namespace tempest
{
namespace fabric
{

/**
 * Worker protocol loop over an already-connected socket: send
 * hello, then read newline-delimited job messages and write result
 * lines until shutdown or EOF. @return process exit status
 * (0 on orderly shutdown/EOF, 1 on a protocol or I/O error).
 */
int workerMain(int fd);

} // namespace fabric
} // namespace tempest

#endif // TEMPEST_SIM_FABRIC_WORKER_HH

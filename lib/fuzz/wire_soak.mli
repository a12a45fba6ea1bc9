(** Wire-mode chaos soak: seeded syscall-fault endurance runs over real
    loopback sockets.

    Each case stands up a supervised TFRC sender and a managed receiver
    ({!Wire.Supervisor}) on two UDP sockets whose syscalls go through
    {!Wire.Faultio} (EAGAIN/ENOBUFS bursts, EINTR storms, ECONNREFUSED
    replays, hard-errno blackouts, truncated deliveries) with a seeded
    {!Wire.Shaper} in each direction, drives the whole session on a
    [`Warp] loop for a fault window plus a recovery window, and judges
    the run with wire oracles:

    - [no-crash] — nothing unwinds out of the loop;
    - [sup-legal] — every supervisor lifecycle transition is a legal
      edge (the {!Tfrc.Invariants} [wire-sup-legal] rule);
    - [invariants] — no other RFC 3448 invariant violation;
    - [recovery] — data flowed, and the session was [Established] at or
      after the end of the fault window ([Closed], for graceful-close
      cases); death cases must additionally have restarted at least once
      on a fresh epoch;
    - [conservation] — per direction, exact counter chains: every frame
      offered to the shaper is dropped there, still in flight, or landed
      in exactly one send bucket; every datagram the kernel delivered is
      a fault-layer drop or was decoded into exactly one receive bucket;
    - [io-health] — the warp settle never gave a datagram up for lost;
    - [busy-loop] — [select] calls plus warp settle passes are bounded by
      work done;
    - [determinism] — the case runs twice and must produce an identical
      trace digest, event count and counter snapshot.

    A case is a pure function of its [(seed, key)] stream, so its repro
    bundle stores no case description: [tfrc_sim repro] regenerates it.
    Cases run through {!Driver}, which owns the batch, the report and
    the bundles. *)

(** One chaos case: fault plans, shaper, timing and kind
    (steady, death or graceful close). *)
type case

(** The soak case kind: job keys ["soak/NNNN"], no shrinker. The
    [--mutate] plant — a dead peer restarts immediately, skipping
    [Backoff] — must trip [sup-legal]. *)
val kind : case Driver.kind

(** The process-wide domain pool for deterministic data-parallel loops.

    Worker domains are spawned on demand and reused across jobs (OCaml
    domains are heavyweight: each carries a minor heap, and {!Domain.spawn}
    is ~100 µs). The engine, the simulator and the bench harness all
    schedule onto this one pool; idle workers block on a condition variable
    and cost nothing.

    Determinism contract: a job is a function of the index alone, indices are
    claimed from an atomic counter (work stealing), and results are written
    into a preallocated slot per index — so the {e outcome} of
    [parallel_for]/[map] never depends on which domain ran which index, only
    the wall-clock does. Shared mutable state inside the job body is the
    caller's responsibility (see the [Metrics] threading contract).

    The calling domain participates in the job (a job at [~domains:d] uses
    [d - 1] workers plus the caller), and a job submitted from inside another
    job runs inline on the submitting domain — nesting degrades to sequential
    instead of deadlocking on the single job slot. *)

val max_domains : int
(** Hard cap on [~domains] (runaway-argument guard, far above any real
    machine this targets); [~domains] below 1 counts as 1. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism bound. *)

val parallel_for : domains:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~domains ~n body] runs [body i] for [0 <= i < n], each
    index exactly once, across at most [domains] domains (caller included;
    the pool grows as needed). Returns when every index has completed. The
    first exception a body raises is re-raised in the caller after all
    domains have drained; remaining unclaimed indices are skipped.
    [domains <= 1], [n <= 1] and nested calls run inline. *)

val map : domains:int -> n:int -> (int -> 'a) -> 'a array
(** [map ~domains ~n f] is [[| f 0; ...; f (n-1) |]] computed with
    {!parallel_for}: results land by index, so the array is identical to the
    sequential one whenever [f] is deterministic per index. *)

val for_chunks : domains:int -> chunk:int -> n:int -> (int -> unit) -> unit
(** {!parallel_for} with indices claimed [chunk] at a time: domains steal
    whole shards of [chunk] consecutive indices from the atomic counter, so a
    loop over thousands of tiny bodies (the engine's live-session sweep) pays
    one claim per shard instead of one per index. Same determinism contract
    as {!parallel_for}; [chunk >= n] degrades to a single shard (sequential). *)

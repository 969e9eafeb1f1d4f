(** Fault-adaptive fast path: agreement whose communication scales with the
    {e actual} number of corruptions [f], not the worst-case bound [t].

    Every protocol in this repository pays its worst-case Θ(t)-driven cost
    even in the production-typical zero-fault run.  Following the adaptive
    agreement line (Constantinescu–Dufay–Paramonov–Wattenhofer, PAPERS.md),
    this module adds an optimistic O(1)-round preamble in front of Π_ℤ over
    an arbitrary BA substrate: when a certificate forms — a quorum of
    order-statistic witnesses — the parties terminate with O(nℓ + n²κ) bits;
    otherwise they fall back to the full worst-case protocol, paying only the
    preamble as overhead.

    {b The arbitration pattern.}  Honest parties may disagree on whether the
    certificate formed (byzantine parties can show it to some and not
    others), and the lock-step protocol monad requires all honest parties to
    consume identical round counts, so the fast/slow decision cannot be a
    local branch.  The wrapper therefore runs one {e bit}-BA (plain
    phase king, t < n/3) on "my certificate formed" and branches on its agreed
    output.  Over the two-element domain the bit-BA's output is always some
    honest party's input (Lemma 2), which is exactly the soundness needed:
    a [true] outcome proves an honest witness of the certificate.

    {b Round adaptivity and its limit.}  A simultaneous decision provably
    needs t+1 rounds regardless of f (the Dwork–Moses lower bound), so no
    inner sub-protocol of a lock-step stack can stop in min(f+2, t+1) rounds
    on the nose.  What this layer delivers is the coarse version: a fixed
    O(t)-round skeleton (preamble + bit-BA arbitration) that the f = 0 run
    terminates at, versus skeleton + full fallback otherwise.  The
    cost model reports this honestly — see [wrapper_cost]. *)

type stats = {
  mutable fast_taken : int;  (** arbitrations that decided for the fast path *)
  mutable fallbacks : int;  (** arbitrations that fell back to full Π_ℤ *)
  mutable f_observed : int;
      (** high-water mark of parties observed deviating from the fast-path
          protocol (missing/undecodable/inconsistent echoes) — a lower bound
          on the actual corruptions f in this party's view *)
}
(** Per-party fast-path accounting.  One record per (party, protocol run):
    each party must own a distinct record (see
    [Workload.pi_z_adaptive]'s [stats_of]).  Mirrored into the Obs Det tier
    as [adaptive/{fast_path_taken,fallbacks,f_observed}] by the engine CLI. *)

val stats : unit -> stats
(** A zeroed record. *)

val agree_int :
  ?stats:stats ->
  fallback:(module Ba.Substrate.S) ->
  Net.Ctx.t ->
  Bigint.t ->
  Bigint.t Net.Proto.t
(** [agree_int ~fallback ctx v] solves Convex Agreement over ℤ
    (Definition 1) with an f = 0 fast path in front of the full Π_ℤ stack
    instantiated over [fallback].  The preamble ([4] rounds, O(nℓ + n²κ)
    bits):

    + {b R1} — broadcast a 13-byte order key (sign, bit length, top 128
      magnitude bits) and the SHA-256 digest of the canonically encoded
      input;
    + {b R2} — broadcast the digest of the full R1 inbox (view-consistency
      echo); a party's view is {e consistent} when all n R1 slots decode and
      all n R2 echoes equal its own.  Consistency at any single honest party
      implies every honest party holds the identical R1 view, hence the same
      {e median party} [med] (rank ⌊n/2⌋ in (key, id) order) and the same
      committed digest;
    + {b R3} — [med] broadcasts its full input; receivers verify the raw
      bytes against the committed digest and key;
    + {b R4} — broadcast one comparison byte: ⊥, or sign of [v - u] against
      the verified median value [u].

    The certificate at party i: consistent view, verified [u], every R4
    slot a valid comparison, and ≥ t+1 parties claiming [v ≤ u] as well as
    ≥ t+1 claiming [v ≥ u].  One bit-BA arbitrates; on [true] every honest
    party holds the same [u] (an honest claim of each kind pins [u] inside
    the honest hull — exact convex validity), on [false] the full Π_ℤ over
    [fallback] runs.  Any single active corruption can veto the fast path —
    that is the design point: f = 0 costs O(nℓ + n²κ) bits in O(t) rounds,
    f > 0 costs the worst case plus the cheap preamble. *)

val fast_path_rounds : Net.Ctx.t -> int
(** Rounds of [agree_int]'s fast path: the 4-round preamble plus the bit-BA
    arbitration ([3(t+1)]). *)

val wrapper_cost :
  Net.Ctx.t -> value_bits:int -> fallback:(module Ba.Substrate.S) -> f:int ->
  Ba.Substrate.cost
(** f-sensitive cost model for [agree_int]: preamble + arbitration at
    [f = 0], plus the full Π_ℤ [cost_estimate] over the fallback otherwise. *)

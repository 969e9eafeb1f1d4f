(** Byzantine Agreement with k-Rank (interval) Validity — the generalization
    of median validity to an arbitrary order statistic, per Melnyk and
    Wattenhofer [36] ("Byzantine agreement with interval validity", cited in
    Section 1.1): the common output lies within t ranks of the k-th lowest
    honest input.

    {b Achievability caveat} (found by the randomized test-suite during
    development and consistent with [36]'s lower bounds): without identical
    views, a king-based protocol cannot pin {e extreme} ranks — with k
    byzantine values below the minimum, no received-rank window both excludes
    them and is guaranteed to intersect every other honest party's window.
    The protocol therefore clamps the target to the sound regime
    [t+1, (n−t)−t]; for ranks inside it the output lies in
    [h_(rank−t), h_(rank+t)], and for more extreme requests the guarantee
    degrades gracefully toward the median's (the exact bounds are
    {!validity_bounds}, computed with the same clamping).
    k = ⌈(n−t)/2⌉ is {!Median_ba}, which runs on this window.

    Rank-window soundness for a clamped rank r: with [count] received values
    of which ≤ k_byz are byzantine, (1-indexed) a_i ≥ h_(i−k_byz) and
    a_i ≤ h_i, so the window [a_(r−t+k_byz), a_(r+t)] sits inside
    [h_(r−t), h_(r+t)]; and since k_byz ≤ t ≤ r−1 it still contains h_r
    itself, so all honest trusted intervals share a common point — the
    precondition the king search needs for agreement.

    Built on {!High_cost_ca.run_custom}: O(ℓ·n³) bits, 2 + 4(t+1) rounds. *)

open Net

(* The sound target rank among [honest_count] honest inputs: [rank]
   projected into [[min (t+1) honest_count, max … (honest_count − t)]]. *)
let effective_rank ~rank ~t ~honest_count =
  let lo = min (t + 1) honest_count in
  let hi = max lo (honest_count - t) in
  min (max rank lo) hi

let rank_window ~rank ~sorted ~k ~t =
  let count = Array.length sorted in
  let honest_count = count - k in
  let r = effective_rank ~rank ~t ~honest_count in
  let clamp i = max 0 (min (count - 1) i) in
  let lo = clamp (r - t + k - 1) and hi = clamp (r + t - 1) in
  (sorted.(min lo hi), sorted.(max lo hi))

(** [run ctx ~bits ~rank v] — [rank] is 1-indexed among the honest inputs
    and must be the same public value at every honest party. *)
let run (ctx : Ctx.t) ~bits ~rank v_in =
  if rank < 1 then invalid_arg "Rank_ba.run: rank must be >= 1";
  Proto.with_label "rank_ba"
    (High_cost_ca.run_custom ctx ~bits
       ~select_interval:(fun ~sorted ~k ~t -> rank_window ~rank ~sorted ~k ~t)
       v_in)

(** The validity bounds the common output satisfies — [h_(r−t), h_(r+t)] for
    the {e clamped} rank r (see the module caveat). For tests and monitors. *)
let validity_bounds honest_inputs ~rank ~t output =
  match List.sort Bitstring.compare honest_inputs with
  | [] -> invalid_arg "Rank_ba.validity_bounds: no inputs"
  | sorted_list ->
      let sorted = Array.of_list sorted_list in
      let honest_count = Array.length sorted in
      let r = effective_rank ~rank ~t ~honest_count in
      let clamp i = max 0 (min (honest_count - 1) i) in
      Bitstring.compare sorted.(clamp (r - t - 1)) output <= 0
      && Bitstring.compare output sorted.(clamp (r + t - 1)) <= 0

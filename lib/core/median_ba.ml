(** Byzantine Agreement with Median Validity (Stolz–Wattenhofer [47]) — the
    protocol HIGHCOSTCA was adjusted from (Appendix A.4: "In the protocol of
    [47], this is an interval containing values close to the honest median").

    Identical king-based search, but the trusted interval is a ±t rank window
    around the median of the values received, so the common output is not
    merely {e somewhere} in the honest range but close to the honest median:

    {b t-Median Validity} — the output lies within [h_(m−t), h_(m+t)], where
    h_1 ≤ ... ≤ h_(n−t) are the honest inputs sorted and m = ⌈(n−t)/2⌉. (A
    byzantine value may be output, but only if its rank sits within t
    positions of the honest median — unavoidable per [47].)

    Included both as the faithful rendering of the cited construction and
    because median validity is what several of the intro's applications
    (clock networks [14], interval validity [36]) actually want.

    Same complexity as HIGHCOSTCA: O(ℓ·n³) bits, 2 + 4(t+1) rounds. *)

open Net

(* The trusted interval is [Rank_ba]'s window at the honest median rank
   m = ⌈(n−t)/2⌉. With at most t corruptions a party receives count ≥ n−t
   valid values of which k = count − (n−t) may be byzantine, so the honest
   count is exactly n−t, and m lies in [Rank_ba]'s sound range [t+1, n−2t]
   for n > 3t: the window is [a_(m−t+k), a_(m+t)] around the honest median. *)
let run (ctx : Ctx.t) ~bits v_in =
  let rank = ((ctx.Ctx.n - ctx.Ctx.t) + 1) / 2 in
  Proto.with_label "median_ba"
    (High_cost_ca.run_custom ctx ~bits
       ~select_interval:(Rank_ba.rank_window ~rank)
       v_in)

(** The t-median-validity bounds for a given list of honest inputs — what a
    test or monitor should check the common output against. *)
let validity_bounds honest_inputs =
  match List.sort Bitstring.compare honest_inputs with
  | [] -> invalid_arg "Median_ba.validity_bounds: no inputs"
  | sorted_list ->
      let sorted = Array.of_list sorted_list in
      let count = Array.length sorted in
      let med = (count - 1) / 2 in
      fun ~t output ->
        Bitstring.compare sorted.(max 0 (med - t)) output <= 0
        && Bitstring.compare output sorted.(min (count - 1) (med + t)) <= 0

(* Reference specification of HIGHCOSTCA ([Convex.High_cost_ca]) as the
   library had it while every round of every king phase re-sent the full
   value: round 1 the encoded current value, rounds 2 and 4 the option
   encoding of the proposal and vote, round 3 the king's encoded value.
   Frozen. test_high_cost_ca.ml runs the library's HIGHCOSTCA (and Rank_ba
   and Median_ba over it) against it on a grid of n, widths, input families
   and adversaries, and requires convex agreement on both paths, equal
   rounds, equal outputs under the adversaries that do not touch honest
   bytes, and no more honest bits than this path. Never edit this file to
   make that test pass. *)

open Net

let ( let* ) = Proto.( let* )

let encode_opt v = Wire.encode (Wire.w_option Wire.w_bits v)

(* Hoisted readers: building the combinator chains at the decode site would
   allocate their closures once per message. *)
let r_opt_bits = Wire.r_option (Wire.r_bits ())
let r_interval = Wire.r_pair (Wire.r_bits ()) (Wire.r_bits ())

let decode_opt ~bits raw =
  match Wire.decode_full r_opt_bits raw with
  | Some (Some v) when Bitstring.length v = bits -> Some v
  | Some _ | None -> None

let valid_values ~bits inbox =
  let out = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some raw -> (
          match Wire.decode_value ~bits raw with
          | Some v -> out := v :: !out
          | None -> ()))
    inbox;
  !out

(* Count, for each distinct value, how many distinct senders sent it. *)
let tally ~decode inbox = Ba.Phase_king.tally ~equal:Bitstring.equal ~decode inbox

let best_supported entries =
  List.fold_left
    (fun best (v, c) ->
      match best with
      | Some (bv, bc) when c < bc || (c = bc && Bitstring.compare bv v <= 0) ->
          Some (bv, bc)
      | _ -> Some (v, c))
    None entries

(* The trusted-interval rule is pluggable: the Appendix A.4 adjustment trims
   the k possibly-byzantine extremes (by Lemma 10 the rest, which holds the
   (t+1)-th lowest honest input, lies within the honest range, and any
   interval inside it suffices for CA), while the original Stolz–Wattenhofer rule (Median_ba)
   takes a ±t rank window around the honest median (Rank_ba's window at the
   median rank). [sorted] is the ascending array of valid values received,
   non-empty; [k] bounds how many of them byzantine parties contributed. *)
let trim_extremes ~sorted ~k ~t:_ =
  let count = Array.length sorted in
  (sorted.(min k (count - 1)), sorted.(max 0 (count - 1 - k)))

let run_custom (ctx : Ctx.t) ~bits ~select_interval v_in =
  if Bitstring.length v_in <> bits then invalid_arg "High_cost_ca.run: input length";
  let t = ctx.Ctx.t in
  let quorum = Ctx.quorum ctx in
  Proto.with_label "high_cost_ca"
    ((* Setup: inputs. *)
     let* inbox = Proto.broadcast (Wire.encode_value v_in) in
     let received = List.sort Bitstring.compare (valid_values ~bits inbox) in
     let count = List.length received in
     (* k of the received values may be byzantine; with fewer than n−t values
        received (impossible against ≤ t corruptions) clamp k at 0. *)
     let k = max 0 (count - quorum) in
     let arr = Array.of_list received in
     let interval_min, interval_max =
       if count = 0 then (v_in, v_in) else select_interval ~sorted:arr ~k ~t
     in
     (* Setup: intervals. *)
     let* inbox =
       Proto.broadcast
         (Wire.encode (Wire.w_pair Wire.w_bits Wire.w_bits (interval_min, interval_max)))
     in
     let intervals =
       Array.to_list inbox
       |> List.filter_map (fun raw ->
              Option.bind raw (fun raw ->
                  match Wire.decode_full r_interval raw with
                  | Some (lo, hi)
                    when Bitstring.length lo = bits
                         && Bitstring.length hi = bits
                         && Bitstring.compare lo hi <= 0 ->
                      Some (lo, hi)
                  | Some _ | None -> None))
     in
     (* SUGGESTION: a value inside n−t of the received intervals. Coverage is
        maximal at some left endpoint; the (t+1)-th lowest honest input lies
        in every honest interval, so max coverage >= n−t. *)
     let covered p =
       List.length
         (List.filter
            (fun (lo, hi) -> Bitstring.compare lo p <= 0 && Bitstring.compare p hi <= 0)
            intervals)
     in
     let suggestion =
       let candidates = List.sort Bitstring.compare (List.map fst intervals) in
       match List.find_opt (fun p -> covered p >= quorum) candidates with
       | Some p -> p
       | None -> v_in (* unreachable against <= t corruptions *)
     in
     let in_own_interval v =
       Bitstring.compare interval_min v <= 0 && Bitstring.compare v interval_max <= 0
     in
     (* Search: t+1 king phases of four rounds each. *)
     let rec phase i current =
       (* Convergence probe: the party's current estimate at each phase entry
          (and once more on exit). Every update keeps honest estimates inside
          the trusted intervals, so the honest hull width is monotone
          non-increasing over phases. *)
       let* () = Proto.probe "high_cost_ca.current" current in
       if i > t + 1 then Proto.return current
       else begin
         (* Round 1: exchange current values. *)
         let* inbox1 = Proto.broadcast (Wire.encode_value current) in
         let proposal =
           match
             List.find_opt
               (fun (_, c) -> c >= quorum)
               (tally ~decode:(Wire.decode_value ~bits) inbox1)
           with
           | Some (v, _) -> Some v
           | None -> None
         in
         (* Round 2: proposals. *)
         let* inbox2 = Proto.broadcast (encode_opt proposal) in
         let propose_tally = tally ~decode:(decode_opt ~bits) inbox2 in
         let strong = List.exists (fun (_, c) -> c >= quorum) propose_tally in
         let current =
           match List.find_opt (fun (_, c) -> c >= t + 1) propose_tally with
           | Some (v, _) -> v
           | None -> current
         in
         (* Round 3: the king circulates its value. *)
         let king = i - 1 in
         let king_value_of_mine =
           match List.find_opt (fun (_, c) -> c >= t + 1) propose_tally with
           | Some (v, _) -> v
           | None -> suggestion
         in
         let* inbox3 =
           if ctx.Ctx.me = king then
             Proto.broadcast (Wire.encode_value king_value_of_mine)
           else Proto.receive_only ()
         in
         let king_value =
           if ctx.Ctx.me = king then Some king_value_of_mine
           else Option.bind inbox3.(king) (Wire.decode_value ~bits)
         in
         (* Round 4: vote for an acceptable king value. *)
         let vote =
           match king_value with
           | Some kv when Bitstring.equal kv current || in_own_interval kv -> Some kv
           | Some _ | None -> None
         in
         let* inbox4 = Proto.broadcast (encode_opt vote) in
         let current =
           if strong then current
           else
             match
               best_supported
                 (List.filter (fun (_, c) -> c >= t + 1) (tally ~decode:(decode_opt ~bits) inbox4))
             with
             | Some (kv, _) -> kv
             | None -> current
         in
         phase (i + 1) current
       end
     in
     phase 1 suggestion)

let run ctx ~bits v_in = run_custom ctx ~bits ~select_interval:trim_extremes v_in

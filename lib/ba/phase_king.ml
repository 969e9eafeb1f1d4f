(* Phase-king agreement, t+1 phases of three rounds each.

   Phase invariants (n > 3t):
   - Persistence: if all honest parties enter a phase with the same value,
     they all lock it and ignore the king.
   - At most one value can be proposed by any honest party in a phase (two
     distinct proposals would each need n-2t honest holders; 2(n-2t) > n-t).
   - If any honest party locks w, every honest party ends the phase with w.
   - A phase with an honest king therefore ends with all honest parties
     agreeing, and persistence preserves that agreement; among t+1 kings one
     is honest. *)

open Net

type 'v spec = {
  equal : 'v -> 'v -> bool;
  default : 'v;
  encode : 'v -> string;
  decode : string -> 'v option;
}

let ( let* ) = Proto.( let* )

(* Tally distinct decoded values in an inbox (at most one per sender), in
   first-seen order, each represented by its first sender's value. One pass
   over the senders, each costing work in the number of distinct payloads
   seen so far, not in n:
   - the bytes are compared ([String.equal]) with the first copy of each
     distinct byte string seen so far, which in a Π_BA inbox usually
     matches the first;
   - a new byte string is decoded exactly once ([decode] is pure), and its
     value is placed in a group by [equal] against the groups' values only.
     Bytes alone cannot group: [Wire]'s varints accept overlong forms, so
     distinct byte strings can decode to equal values;
   - counts are kept in place.
   The scans are plain loops (an inner [let rec] per message would allocate
   its closure) and the integer bookkeeping lives in [tally_scratch], so the
   call allocates only [vals], the decoded values and the result. Every
   consumer is insensitive to entry order: at most one value can reach any
   >= t+1 threshold with counts from distinct senders. *)

(* Per-domain integer scratch for [tally]. [tally] takes the buffer out of
   the cell while it runs, so a re-entrant call (from [decode] or [equal])
   would build its own rather than overwrite it. *)
let tally_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let tally ~equal ~decode inbox =
  let n = Array.length inbox in
  let cell = Domain.DLS.get tally_scratch in
  let s = if Array.length !cell >= 3 * n then !cell else Array.make (3 * n) 0 in
  cell := [||];
  (* Distinct byte string b: s.(b) is its first sender and s.(n + b) its
     value group, -1 when undecodable. Group g: s.(2n + g) is its count and
     vals.(g) its value. *)
  let vals = Array.make n None in
  let nb = ref 0 and ng = ref 0 in
  for i = 0 to n - 1 do
    match inbox.(i) with
    | None -> ()
    | Some raw ->
        let b = ref 0 in
        while
          !b < !nb
          && match inbox.(s.(!b)) with Some r -> not (String.equal r raw) | None -> true
        do
          incr b
        done;
        let g =
          if !b < !nb then s.(n + !b)
          else begin
            let g =
              match decode raw with
              | None -> -1
              | Some v as d ->
                  let g = ref 0 in
                  while
                    !g < !ng
                    && match vals.(!g) with Some w -> not (equal w v) | None -> true
                  do
                    incr g
                  done;
                  if !g = !ng then begin
                    vals.(!g) <- d;
                    s.((2 * n) + !g) <- 0;
                    incr ng
                  end;
                  !g
            in
            s.(!nb) <- i;
            s.(n + !nb) <- g;
            incr nb;
            g
          end
        in
        if g >= 0 then s.((2 * n) + g) <- s.((2 * n) + g) + 1
  done;
  let acc = ref [] in
  for g = !ng - 1 downto 0 do
    match vals.(g) with Some v -> acc := (v, s.((2 * n) + g)) :: !acc | None -> ()
  done;
  cell := s;
  !acc

(* Value with the highest count; ties broken by canonical encoding so all
   honest parties make the same deterministic choice. The encodings are
   computed only when a tie actually has to be broken. *)
let argmax spec = function
  | [] -> None
  | entries ->
      Some
        (List.fold_left
           (fun (bv, bc) (v, c) ->
             if
               c > bc
               || (c = bc && String.compare (spec.encode v) (spec.encode bv) < 0)
             then (v, c)
             else (bv, bc))
           (List.hd entries) (List.tl entries))

(* Hoisted reader and writer: building [r_option (r_bytes ())] (or the
   writer-side partial application) at the codec site would allocate the
   combinator closures once per message. *)
let r_opt_bytes = Wire.r_option (Wire.r_bytes ())
let w_opt_bytes = Wire.w_option Wire.w_bytes

let run spec (ctx : Ctx.t) input =
  let quorum = Ctx.quorum ctx in
  (* Proposal codec, built once per run — not once per phase (the closures
     are loop-invariant). *)
  let encode_proposal p = Wire.encode (w_opt_bytes (Option.map spec.encode p)) in
  let decode_proposal raw =
    match Wire.decode_full r_opt_bytes raw with
    | None -> None (* malformed: drop sender *)
    | Some None -> None (* an explicit "no proposal" carries no vote *)
    | Some (Some payload) -> spec.decode payload
  in
  let rec phase k v =
    if k > ctx.Ctx.t + 1 then Proto.return v
    else
      (* Round 1: universal exchange of current values. *)
      let* inbox1 = Proto.broadcast (spec.encode v) in
      let proposal =
        match
          List.find_opt
            (fun (_, c) -> c >= quorum)
            (tally ~equal:spec.equal ~decode:spec.decode inbox1)
        with
        | Some (w, _) -> Some w
        | None -> None
      in
      (* Round 2: universal exchange of proposals. *)
      let* inbox2 = Proto.broadcast (encode_proposal proposal) in
      let votes = tally ~equal:spec.equal ~decode:decode_proposal inbox2 in
      let v, locked =
        match argmax spec votes with
        | Some (w, c) when c >= ctx.Ctx.t + 1 -> (w, c >= quorum)
        | _ -> (v, false)
      in
      (* Round 3: the phase king circulates its value. *)
      let king = k - 1 in
      let* inbox3 =
        if ctx.Ctx.me = king then Proto.broadcast (spec.encode v)
        else Proto.receive_only ()
      in
      let v =
        if locked then v
        else
          let king_value =
            if ctx.Ctx.me = king then Some v
            else Option.bind inbox3.(king) spec.decode
          in
          Option.value ~default:spec.default king_value
      in
      phase (k + 1) v
  in
  Proto.with_label "pi_ba" (phase 1 input)

let rounds (ctx : Ctx.t) = 3 * (ctx.Ctx.t + 1)

let bit_spec =
  {
    equal = Bool.equal;
    default = false;
    encode = (fun b -> if b then "\001" else "\000");
    decode =
      (fun s ->
        match s with "\000" -> Some false | "\001" -> Some true | _ -> None);
  }

let bytes_spec =
  {
    equal = String.equal;
    default = "";
    encode = Fun.id;
    decode = (fun s -> Some s);
  }

let option_spec =
  {
    equal = Option.equal String.equal;
    default = None;
    encode = (fun v -> Wire.encode (w_opt_bytes v));
    decode = Wire.decode_full r_opt_bytes;
  }

let run_bit ctx b = run bit_spec ctx b
let run_bytes ctx s = run bytes_spec ctx s
let run_option ctx o = run option_spec ctx o

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

(* Tally distinct decoded values in an inbox (at most one per sender), in
   first-seen order, each represented by its first sender's value. Every
   consumer is insensitive to entry order: at most one value can reach any
   >= t+1 threshold with counts from distinct senders.

   One pass over the senders, each costing work in the number of distinct
   payloads seen so far, not in n:
   - the bytes are compared ([String.equal]) with the first copy of each
     distinct byte string seen so far;
   - a new byte string is decoded exactly once ([decode] is pure), and its
     value is placed in a group by [equal] against the groups' values only.
     Bytes alone cannot group: [Wire]'s varints accept overlong forms, so
     distinct byte strings can decode to equal values;
   - counts are kept in place.
   The scans are plain loops (an inner [let rec] per message would allocate
   its closure) and the integer bookkeeping lives in [tally_scratch], so the
   call allocates only the decoded values, one list cell per group and the
   result. *)

(* Per-domain integer scratch for [tally]. [tally] takes the buffer out of
   the cell while it runs, so a re-entrant call (from [decode] or [equal])
   would build its own rather than overwrite it. *)
let tally_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

(* Index of the group whose value is [equal] to [v], or -1, in a list of the
   groups' values newest first whose head is group [g]. Groups are pairwise
   unequal, so at most one matches. *)
let rec find_group equal v g = function
  | [] -> -1
  | w :: rest -> if equal w v then g else find_group equal v (g - 1) rest

(* The entries of groups [0..g], from their values newest first as above,
   in first-seen order and prepended to [acc]; group [g]'s count is
   [counts.(base + g)]. *)
let rec entries counts base g acc = function
  | [] -> acc
  | v :: rest -> entries counts base (g - 1) ((v, counts.(base + g)) :: acc) rest

let tally ~equal ~decode inbox =
  let n = Array.length inbox in
  let cell = Domain.DLS.get tally_scratch in
  let s = if Array.length !cell >= 3 * n then !cell else Array.make (3 * n) 0 in
  cell := [||];
  (* Distinct byte string b: s.(b) is its first sender and s.(n + b) its
     value group, -1 when undecodable. Group g: s.(2n + g) is its count. *)
  let vals = ref [] in
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
              | Some v ->
                  let g = find_group equal v (!ng - 1) !vals in
                  if g >= 0 then g
                  else begin
                    vals := v :: !vals;
                    s.((2 * n) + !ng) <- 0;
                    incr ng;
                    !ng - 1
                  end
            in
            s.(!nb) <- i;
            s.(n + !nb) <- g;
            incr nb;
            g
          end
        in
        if g >= 0 then s.((2 * n) + g) <- s.((2 * n) + g) + 1
  done;
  cell := s;
  entries s (2 * n) (!ng - 1) [] !vals

(* Value with the highest count; ties broken by canonical encoding so all
   honest parties make the same deterministic choice. The encodings are
   computed only when a tie actually has to be broken. *)
let argmax spec = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun ((bv, bc) as best) ((v, c) as entry) ->
             if
               c > bc
               || (c = bc && String.compare (spec.encode v) (spec.encode bv) < 0)
             then entry
             else best)
           first rest)

(* Hoisted reader and writer: building [r_option (r_bytes ())] (or the
   writer-side partial application) at the codec site would allocate the
   combinator closures once per message. *)
let r_opt_bytes = Wire.r_option (Wire.r_bytes ())
let w_opt_bytes = Wire.w_option Wire.w_bytes

(* A round's [out] sending [msg] to every recipient through one shared
   [Some] box: the round loop calls it once per recipient. *)
let sends msg =
  let m = Some msg in
  fun _ -> m

let silent _ = None

(* The ⊥ proposal, the same bytes in every run. *)
let no_proposal = sends (Wire.encode (w_opt_bytes None))

(* Round 2's out: a proposal of the first value a quorum of round-1 senders
   sent, ⊥ when there is none. *)
let rec propose spec quorum = function
  | [] -> no_proposal
  | (w, c) :: rest ->
      if c >= quorum then sends (Wire.encode (w_opt_bytes (Some (spec.encode w))))
      else propose spec quorum rest

(* The phase king as a round machine: each round's [Step] is built here,
   its continuation is the code up to the next round, and the last phase
   hands the output to the rest of the protocol, [f], inside the "pi_ba"
   scope. *)
let run spec (ctx : Ctx.t) input =
  let t = ctx.Ctx.t and me = ctx.Ctx.me and quorum = Ctx.quorum ctx in
  let decode_proposal raw =
    match Wire.decode_full r_opt_bytes raw with
    | None -> None (* malformed: drop sender *)
    | Some None -> None (* an explicit "no proposal" carries no vote *)
    | Some (Some payload) -> spec.decode payload
  in
  {
    Proto.k =
      (fun f ->
        let rec phase k v =
          if k > t + 1 then Proto.Pop (f v)
          else
            (* Round 1: universal exchange of current values. *)
            Proto.Step
              ( sends (spec.encode v),
                fun inbox1 ->
                  (* Round 2: universal exchange of proposals. *)
                  Proto.Step
                    ( propose spec quorum
                        (tally ~equal:spec.equal ~decode:spec.decode inbox1),
                      fun inbox2 ->
                        let votes = tally ~equal:spec.equal ~decode:decode_proposal inbox2 in
                        let v, locked =
                          match argmax spec votes with
                          | Some (w, c) when c >= t + 1 -> (w, c >= quorum)
                          | _ -> (v, false)
                        in
                        (* Round 3: the phase king circulates its value. *)
                        let king = k - 1 in
                        Proto.Step
                          ( (if me = king then sends (spec.encode v) else silent),
                            fun inbox3 ->
                              let v =
                                if locked || me = king then v
                                else
                                  match Option.bind inbox3.(king) spec.decode with
                                  | Some w -> w
                                  | None -> spec.default
                              in
                              phase (k + 1) v ) ) )
        in
        Proto.Push ("pi_ba", phase 1 input));
  }

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

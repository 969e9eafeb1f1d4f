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

(* Integer scratch for [tally]. [tally] takes the buffer out of the cell
   while it runs, so a re-entrant call (from [decode] or [equal]) would
   build its own rather than overwrite it. *)
let tally_scratch = ref [||]

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
  let s =
    if Array.length !tally_scratch >= 3 * n then !tally_scratch else Array.make (3 * n) 0
  in
  tally_scratch := [||];
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
  tally_scratch := s;
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

(* Back-references. After phase 1's round-1 message, which is [spec.encode v]
   itself, an honest party says "the value you already hold from me" in one
   byte instead of re-sending it:
   - round 1 of phases >= 2: [back_reference] ("SAME": my value is the one
     I sent in my last round-1 message), else [full_tag ^ spec.encode v];
   - round 2: [back_reference] ("MINE": I propose the value I sent in this
     phase's round 1), else the proposal's own [w_opt_bytes] encoding;
   - round 3, the king: [back_reference] ("MINE": my value is still the one
     I sent in this phase's round 1), else [full_tag ^ spec.encode v].
   [back_reference] is no [w_opt_bytes] encoding, and a full message's tag
   differs from it, so every message is one of the three kinds. *)
let back_reference = "\002"
let full_tag = '\003'

let king_message body =
  let len = String.length body in
  let b = Bytes.create (len + 1) in
  Bytes.unsafe_set b 0 full_tag;
  Bytes.unsafe_blit_string body 0 b 1 len;
  Bytes.unsafe_to_string b

let same = sends back_reference

(* The body of a full rounds-1/3 message, [None] for anything else. *)
let full_body m =
  let len = String.length m in
  if len > 0 && String.unsafe_get m 0 = full_tag then Some (String.sub m 1 (len - 1))
  else None

(* The first sender before [i] whose message in [inbox] is the bytes [m],
   or -1: a full message resolves as the first copy of its bytes did, so
   each distinct payload is resolved (and allocated) once. *)
let rec first_copy inbox m j i =
  if j >= i then -1
  else
    match inbox.(j) with
    | Some x when String.equal x m -> j
    | Some _ | None -> first_copy inbox m (j + 1) i

(* Resolution, shared with every king protocol that sends back-references
   (HIGHCOSTCA too). Each fills a receiver's per-sender array in place;
   [None] is silence, a reference to nothing, or a malformed message. *)

(* A round-1 inbox after phase 1: a back-reference keeps [one.(i)], a full
   message gives its body (the first copy's, when an earlier sender sent
   the same bytes). *)
let resolve_round_one one inbox =
  for i = 0 to Array.length one - 1 do
    one.(i) <-
      (match inbox.(i) with
      | Some msg when String.equal msg back_reference -> one.(i)
      | Some msg ->
          let j = first_copy inbox msg 0 i in
          if j >= 0 then one.(j) else full_body msg
      | None -> None)
  done

(* A proposal or vote inbox into [into]: "MINE" is [one.(i)], any other
   message [body msg] (the first copy's, as above). *)
let resolve_mine ~body one into inbox =
  for i = 0 to Array.length into - 1 do
    into.(i) <-
      (match inbox.(i) with
      | None -> None
      | Some msg when String.equal msg back_reference -> one.(i)
      | Some msg ->
          let j = first_copy inbox msg 0 i in
          if j >= 0 then into.(j) else body msg)
  done

(* The king's round-3 message: "MINE" is its round-1 body of this phase. *)
let resolve_king one inbox king =
  match inbox.(king) with
  | Some msg when String.equal msg back_reference -> one.(king)
  | Some msg -> full_body msg
  | None -> None

(* The ⊥ proposal, the same bytes in every run. *)
let no_proposal = sends (Wire.encode (w_opt_bytes None))

(* Round 2's out: a proposal of the first value a quorum of round-1 senders
   sent, ⊥ when there is none; a back-reference when that value is [equal]
   to the party's own round-1 value [v]. *)
let rec propose spec quorum v = function
  | [] -> no_proposal
  | (w, c) :: rest ->
      if c < quorum then propose spec quorum v rest
      else if spec.equal w v then same
      else sends (Wire.encode (w_opt_bytes (Some (spec.encode w))))

(* One run's state, shared by every round's continuation so that each
   captures only the run and the phase's values. [one.(i)] is the body of
   sender [i]'s latest round-1 message ([None] after silence or a malformed
   one); [two.(i)] is the body sender [i] proposes this phase ([None] for
   ⊥, silence or a malformed proposal). [f] is the rest of the protocol. *)
type ('v, 'r) machine = {
  spec : 'v spec;
  t : int;
  me : int;
  quorum : int;
  one : string option array;
  two : string option array;
  f : 'v -> 'r Proto.t;
}

(* [w], unless it is [equal] to the current value [v]: then [v] itself, so
   a back-reference to [v]'s encoding stays possible. *)
let keep spec v w = if spec.equal w v then v else w

(* The body a full round-2 message proposes; [None] for ⊥ and for a
   malformed proposal, which drops its sender. *)
let proposal_body msg =
  match Wire.decode_full r_opt_bytes msg with Some p -> p | None -> None

(* The phase king as a round machine: each round's [Step] is built here,
   its continuation is the code up to the next round, and the last phase
   hands the output to [m.f] inside the "pi_ba" scope.

   A receiver resolves every back-reference before it tallies, against what
   that sender sent it earlier in the run ([m.one]). A resolved message is
   one the sender could have sent verbatim without back-references, so each
   resolved inbox is one the plain phase king admits, and the tallies run
   on it unchanged.

   An honest party sends a back-reference only when the value is physically
   the object whose encoding the receiver holds; a vote or king value
   [equal] to the current value therefore keeps the current one. *)
let rec phase m k v sent =
  if k > m.t + 1 then Proto.Pop (m.f v)
  else
    (* Round 1: universal exchange of current values. *)
    Proto.Step
      ( (if k = 1 then sends (m.spec.encode v)
         else if v == sent then same
         else sends (king_message (m.spec.encode v))),
        fun inbox1 -> proposals m k v inbox1 )

(* Round 2: resolve round 1, then the universal exchange of proposals. *)
and proposals m k v inbox1 =
  let one = m.one in
  if k > 1 then resolve_round_one one inbox1 else Array.blit inbox1 0 one 0 (Array.length one);
  let spec = m.spec in
  Proto.Step
    ( propose spec m.quorum v (tally ~equal:spec.equal ~decode:spec.decode one),
      fun inbox2 -> king_round m k v inbox2 )

(* Round 3: resolve and count the votes, then the phase king circulates its
   value. *)
and king_round m k v inbox2 =
  let spec = m.spec and one = m.one and two = m.two in
  resolve_mine ~body:proposal_body one two inbox2;
  let w, locked =
    match argmax spec (tally ~equal:spec.equal ~decode:spec.decode two) with
    | Some (w, c) when c >= m.t + 1 -> (keep spec v w, c >= m.quorum)
    | _ -> (v, false)
  in
  let king = k - 1 in
  Proto.Step
    ( (if m.me <> king then silent
       else if w == v then same
       else sends (king_message (spec.encode w))),
      fun inbox3 ->
        let w =
          if locked || m.me = king then w
          else
            keep spec w
              (match Option.bind (resolve_king one inbox3 king) spec.decode with
              | Some x -> x
              | None -> spec.default)
        in
        phase m (k + 1) w v )

let run spec (ctx : Ctx.t) input =
  {
    Proto.k =
      (fun f ->
        let n = ctx.Ctx.n in
        let m =
          {
            spec;
            t = ctx.Ctx.t;
            me = ctx.Ctx.me;
            quorum = Ctx.quorum ctx;
            one = Array.make n None;
            two = Array.make n None;
            f;
          }
        in
        Proto.Push ("pi_ba", phase m 1 input input));
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

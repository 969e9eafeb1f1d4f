(* Reference specification of Π_BA: the phase king as the library had it
   while it was written with the [Proto] builder's combinators — three
   [let*] rounds per phase under [Proto.with_label "pi_ba"] — together with
   the [tally] it used, frozen. Every round message is encoded afresh and
   the tally builds its per-call value array. test_ba.ml runs
   [Ba.Phase_king.run] against it on random inputs, corruptions and every
   generic adversary, and requires the same outputs, rounds and per-label
   honest bits. Never edit this file to make that test pass. *)

open Net

let ( let* ) = Proto.( let* )

let tally_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let tally ~equal ~decode inbox =
  let n = Array.length inbox in
  let cell = Domain.DLS.get tally_scratch in
  let s = if Array.length !cell >= 3 * n then !cell else Array.make (3 * n) 0 in
  cell := [||];
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

let argmax (spec : 'v Ba.Phase_king.spec) = function
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

let r_opt_bytes = Wire.r_option (Wire.r_bytes ())
let w_opt_bytes = Wire.w_option Wire.w_bytes

let run (spec : 'v Ba.Phase_king.spec) (ctx : Ctx.t) input =
  let quorum = Ctx.quorum ctx in
  let encode_proposal p = Wire.encode (w_opt_bytes (Option.map spec.encode p)) in
  let decode_proposal raw =
    match Wire.decode_full r_opt_bytes raw with
    | None -> None
    | Some None -> None
    | Some (Some payload) -> spec.decode payload
  in
  let rec phase k v =
    if k > ctx.Ctx.t + 1 then Proto.return v
    else
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
      let* inbox2 = Proto.broadcast (encode_proposal proposal) in
      let votes = tally ~equal:spec.equal ~decode:decode_proposal inbox2 in
      let v, locked =
        match argmax spec votes with
        | Some (w, c) when c >= ctx.Ctx.t + 1 -> (w, c >= quorum)
        | _ -> (v, false)
      in
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

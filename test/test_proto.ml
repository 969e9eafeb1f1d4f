(* Proto's continuation-passing builder against the free-monad reference
   (proto_spec.ml): random protocol trees are built with both and driven
   with the same scripted inboxes. Each round's messages to every
   recipient, the Push/Pop/Probe sequence and the result must match. *)

open Net

let n = 4

(* A random protocol: every node's behaviour is a pure function of the
   party's running accumulator, so two builds of one tree are comparable. *)
type tree =
  | Ret
  | Exchange of int * tree  (** one round, per-recipient messages (some absent) *)
  | Broadcast of tree
  | Receive of tree
  | Label of string * tree * tree  (** [let* x = with_label l sub in rest] *)
  | Probe of tree
  | Early of tree  (** return now when the accumulator is even *)
  | Par of tree list * tree  (** [let* xs = parallel subs in rest] *)
  | Both of tree * tree * tree

let rec show = function
  | Ret -> "ret"
  | Exchange (salt, k) -> Printf.sprintf "ex%d; %s" salt (show k)
  | Broadcast k -> "bc; " ^ show k
  | Receive k -> "rx; " ^ show k
  | Label (l, sub, k) -> Printf.sprintf "%s{%s}; %s" l (show sub) (show k)
  | Probe k -> "probe; " ^ show k
  | Early k -> "early; " ^ show k
  | Par (subs, k) ->
      Printf.sprintf "par[%s]; %s" (String.concat " | " (List.map show subs)) (show k)
  | Both (a, b, k) -> Printf.sprintf "both[%s | %s]; %s" (show a) (show b) (show k)

let gen_tree =
  let open QCheck.Gen in
  sized_size (int_bound 12)
  @@ fix (fun self size ->
         let leaf = return Ret in
         if size <= 0 then leaf
         else
           let sub = self (size / 2) and next = self (size - 1) in
           frequency
             [
               (1, leaf);
               (3, map2 (fun salt k -> Exchange (salt, k)) (int_bound 5) next);
               (2, map (fun k -> Broadcast k) next);
               (1, map (fun k -> Receive k) next);
               (2, map3 (fun l s k -> Label (l, s, k)) (oneofl [ "a"; "b"; "c" ]) sub next);
               (2, map (fun k -> Probe k) next);
               (1, map (fun k -> Early k) next);
               (1, map2 (fun subs k -> Par (subs, k)) (list_size (int_range 1 3) sub) next);
               (1, map3 (fun a b k -> Both (a, b, k)) sub sub next);
             ])

let mix acc x = ((acc * 31) + x) land 0xFFFFFF

let fold_inbox acc inbox =
  Array.fold_left
    (fun acc slot ->
      match slot with None -> mix acc 1 | Some s -> mix acc (Hashtbl.hash s + 2))
    acc inbox

(* The combinators both implementations provide. *)
module type BUILDER = sig
  type 'a m

  val run : 'a m -> 'a Proto.t
  val return : 'a -> 'a m
  val bind : 'a m -> ('a -> 'b m) -> 'b m
  val exchange : (int -> string option) -> Proto.inbox m
  val broadcast : string -> Proto.inbox m
  val receive_only : unit -> Proto.inbox m
  val with_label : string -> 'a m -> 'a m
  val probe : string -> Bitstring.t -> unit m
  val parallel : 'a m list -> 'a list m
  val both : 'a m -> 'b m -> ('a * 'b) m
end

module Build (B : BUILDER) = struct
  let rec eval ~me tree acc =
    match tree with
    | Ret -> B.return acc
    | Exchange (salt, k) ->
        B.bind
          (B.exchange (fun r ->
               if (acc + salt + r) mod 3 = 0 then None
               else Some (Printf.sprintf "%d:%d:%d" me acc r)))
          (fun inbox -> eval ~me k (fold_inbox acc inbox))
    | Broadcast k ->
        B.bind (B.broadcast (string_of_int acc)) (fun inbox -> eval ~me k (fold_inbox acc inbox))
    | Receive k -> B.bind (B.receive_only ()) (fun inbox -> eval ~me k (fold_inbox acc inbox))
    | Label (l, sub, k) ->
        B.bind (B.with_label l (eval ~me sub (mix acc 3))) (fun x -> eval ~me k (mix acc x))
    | Probe k ->
        B.bind
          (B.probe "acc" (Bitstring.of_int_fixed ~bits:24 acc))
          (fun () -> eval ~me k (mix acc 5))
    | Early k -> if acc mod 2 = 0 then B.return acc else eval ~me k (mix acc 7)
    | Par (subs, k) ->
        B.bind
          (B.parallel (List.mapi (fun i sub -> eval ~me sub (mix acc i)) subs))
          (fun xs -> eval ~me k (List.fold_left mix acc xs))
    | Both (a, b, k) ->
        B.bind
          (B.both (eval ~me a (mix acc 11)) (eval ~me b (mix acc 13)))
          (fun (x, y) -> eval ~me k (mix (mix acc x) y))

  let build ~me tree = B.run (eval ~me tree me)
end

module Cps = Build (struct
  include Proto

  let bind = Proto.( let* )
end)
module Spec = Build (Proto_spec)

type event =
  | Out of string option list
  | Push of string
  | Pop
  | Probe of string * string
  | Result of int

(* Round [r]'s scripted inbox: absent slots, plain payloads, and multiplexed
   frames of 1–3 branch slots (so [parallel]'s slicing sees well-formed,
   short and long frames). One array is reused across rounds, as the round
   loop does. *)
let script ~seed ~round inbox =
  for s = 0 to n - 1 do
    let h = Hashtbl.hash (seed, round, s) in
    inbox.(s) <-
      (match h mod 4 with
      | 0 -> None
      | 1 -> Some (Printf.sprintf "raw%d" h)
      | _ ->
          let slots =
            List.init (1 + (h / 4 mod 3)) (fun b ->
                if ((h / 16) + b) mod 3 = 0 then None
                else Some (Printf.sprintf "m%d.%d" h b))
          in
          Some (Wire.encode (Wire.w_list (Wire.w_option Wire.w_bytes) slots)))
  done

let drive ~seed p =
  let inbox = Array.make n None in
  let rec go round acc = function
    | Proto.Done x -> List.rev (Result x :: acc)
    | Proto.Step (out, k) ->
        if round > 10_000 then Alcotest.fail "protocol does not terminate";
        let acc = Out (List.init n out) :: acc in
        script ~seed ~round inbox;
        go (round + 1) acc (k inbox)
    | Proto.Push (l, rest) -> go round (Push l :: acc) rest
    | Proto.Pop rest -> go round (Pop :: acc) rest
    | Proto.Probe (key, v, rest) -> go round (Probe (key, Bitstring.to_string v) :: acc) rest
  in
  go 0 [] p

let prop_matches_spec =
  QCheck.Test.make ~name:"builder = free-monad reference (random trees)" ~count:500
    (QCheck.pair (QCheck.make ~print:show gen_tree) (QCheck.int_bound 10_000))
    (fun (tree, seed) ->
      let me = seed mod n in
      drive ~seed (Cps.build ~me tree) = drive ~seed (Spec.build ~me tree))

let suite = [ QCheck_alcotest.to_alcotest prop_matches_spec ]

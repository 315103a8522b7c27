(* Invariants over a flat metric set.  A gate maps the metrics to the
   list of its failures; each failure names the key and the value it
   saw.  Zero dependencies, like [Json], so the bench driver, the schema
   checker and the tests share one vocabulary. *)

type metrics = (string * float) list
type t = metrics -> string list

let check gates m = List.concat_map (fun g -> g m) gates

let pred expected ok key m =
  match List.assoc_opt key m with
  | None -> [ key ^ " missing" ]
  | Some v when ok v -> []
  | Some v -> [ Printf.sprintf "%s = %g, expected %s" key v expected ]

let present = pred "a number" (fun _ -> true)
let positive = pred "> 0" (fun v -> v > 0.0)
let nonneg = pred ">= 0" (fun v -> v >= 0.0)
let zero = pred "= 0" (fun v -> v = 0.0)
let unit_interval = pred "in [0,1]" (fun v -> v >= 0.0 && v <= 1.0)

let ladder keys m =
  match check (List.map present keys) m with
  | _ :: _ as missing -> missing
  | [] ->
      let rec go = function
        | a :: (b :: _ as rest) ->
            let x = List.assoc a m and y = List.assoc b m in
            (if x <= y then []
             else [ Printf.sprintf "%s = %g exceeds %s = %g" a x b y ])
            @ go rest
        | _ -> []
      in
      go keys

let le a b = ladder [ a; b ]

let fractions keys m =
  match check (List.map unit_interval keys) m with
  | _ :: _ as bad -> bad
  | [] ->
      let sum =
        List.fold_left (fun acc k -> acc +. List.assoc k m) 0.0 keys
      in
      if sum = 0.0 || Float.abs (sum -. 1.0) <= 1e-3 then []
      else
        [
          Printf.sprintf "%s sum to %g, expected ~1 or all 0"
            (String.concat " + " keys) sum;
        ]

let groups ~prefix ~suffix gates m =
  let stems =
    List.filter_map
      (fun (k, _) ->
        let lk = String.length k and ls = String.length suffix in
        if
          lk >= String.length prefix + ls
          && String.starts_with ~prefix k
          && String.ends_with ~suffix k
        then Some (String.sub k 0 (lk - ls))
        else None)
      m
  in
  if stems = [] then [ Printf.sprintf "no %s*%s metrics" prefix suffix ]
  else List.concat_map (fun stem -> check (gates stem) m) stems

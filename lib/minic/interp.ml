(* The mini-C interpreter.  Programs execute against the runtime's
   pointer API, so the same source runs in every mode: Volatile gives
   the reference behaviour, Sw/Hw give user-transparent persistent
   references with their cost models.  Locals live in a simulated DRAM
   stack (so & of a local is a real volatile address), and the heap
   region is a parameter: DRAM for native runs, a pool for the
   libvmmalloc-style persist-everything runs of Section VII-B.

   A check [plan] (from the compiler pass) marks the expression nodes
   whose pointer properties static inference resolved; those sites are
   created static and the SW mode emits no dynamic check there. *)

open Ast

(* [Ast] redefines arithmetic symbols as expression builders; restore
   the integer operators for the interpreter's own computations. *)
let ( + ) = Stdlib.( + )
let ( = ) = Stdlib.( = )
let ( <> ) = Stdlib.( <> )
let ( > ) = Stdlib.( > )
let ( && ) = Stdlib.( && )
let ( || ) = Stdlib.( || )

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Ptr = Nvml_core.Ptr
module Runtime = Nvml_runtime.Runtime
module Cluster = Nvml_runtime.Cluster
module Site = Nvml_runtime.Site
module Semantics = Nvml_core.Semantics

exception Runtime_error of string

let err fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type t = {
  rt : Runtime.t;
  env : Types.env;
  program : program;
  heap : Runtime.region;
  plan : int -> bool; (* node id -> statically resolved? *)
  sites : (int, Site.t) Hashtbl.t;
  stack_base : int64;
  mutable stack_top : int64;
  mutable vars : (string * (Ptr.t * ty)) list; (* name -> (slot, type) *)
  mutable output : int64 list; (* print stream, reversed *)
  (* The "text segment": one cell per function (in the heap region, so
     function pointers are relative when the heap is persistent). *)
  fun_addr : (string, Ptr.t) Hashtbl.t;
  code_by_va : (int64, string) Hashtbl.t;
}

exception Return_exc of int64
exception Break_exc
exception Continue_exc

let stack_bytes = 1 lsl 20

let create rt ?(plan = fun _ -> false) ~heap (program : program) =
  let env = Types.check_program program in
  let stack_base = Mem.map_fresh (Runtime.mem rt) Layout.Dram stack_bytes in
  let t =
    {
      rt;
      env;
      program;
      heap;
      plan;
      sites = Hashtbl.create 256;
      stack_base;
      stack_top = stack_base;
      vars = [];
      output = [];
      fun_addr = Hashtbl.create 8;
      code_by_va = Hashtbl.create 8;
    }
  in
  (* Lay out the text segment: a cell per function whose address is the
     function's value as a pointer. *)
  List.iter
    (fun (f : func) ->
      let cell = Runtime.alloc_in rt heap 8 in
      Hashtbl.replace t.fun_addr f.fname cell;
      Hashtbl.replace t.code_by_va
        (Nvml_core.Xlate.ra2va (Runtime.xlate rt) cell)
        f.fname)
    program.funcs;
  t

(* One site per expression node; static when the plan resolved it. *)
let site t id =
  match Hashtbl.find_opt t.sites id with
  | Some s -> s
  | None ->
      let s = Site.intern ~static:(t.plan id) (Fmt.str "minic.%d" id) in
      Hashtbl.replace t.sites id s;
      s

let push_slot t bytes =
  let slot = t.stack_top in
  t.stack_top <- Int64.add t.stack_top (Int64.of_int (Layout.align_up_words bytes));
  if Int64.sub t.stack_top t.stack_base > Int64.of_int stack_bytes then
    err "stack overflow";
  slot

let bind t name ty =
  let slot = push_slot t (Types.sizeof t.env ty) in
  t.vars <- (name, (slot, ty)) :: t.vars;
  slot

let lookup t name =
  match List.assoc_opt name t.vars with
  | Some x -> x
  | None -> err "unbound variable %s" name

let var_types t = { t.env with Types.vars = List.map (fun (n, (_, ty)) -> (n, ty)) t.vars }

let type_of t e = Types.type_of (var_types t) e

let elem_size_of_ptr t ty = Types.sizeof t.env (Types.elem_ty ty)

(* Store a value into a typed cell, choosing storeP vs storeD. *)
let store_typed t ~id addr ty v =
  if Types.is_ptr ty then Runtime.store_ptr t.rt ~site:(site t id) addr ~off:0 v
  else Runtime.store_word t.rt ~site:(site t id) addr ~off:0 v

let load_typed t ~id addr ty =
  if Types.is_ptr ty then Runtime.load_ptr t.rt ~site:(site t id) addr ~off:0
  else Runtime.load_word t.rt ~site:(site t id) addr ~off:0

(* Truth of a value of type [ty] (Fig. 4 logical/conditional rows):
   a relative pointer is never null, so the test is format-agnostic. *)
let truth v = not (Int64.equal v 0L)

let map_cmp = function
  | Lt -> Semantics.Lt
  | Gt -> Semantics.Gt
  | Le -> Semantics.Le
  | Ge -> Semantics.Ge
  | Eq -> Semantics.Eq
  | Ne -> Semantics.Ne
  | _ -> assert false

let bool_to_i64 b = if b then 1L else 0L

(* --- evaluation ------------------------------------------------------- *)

let rec eval t (e : expr) : int64 =
  match e.e with
  | EInt v -> v
  | ENull -> 0L
  | ESizeof ty -> Int64.of_int (Types.sizeof t.env ty)
  | EVar v -> (
      match List.assoc_opt v t.vars with
      | Some (slot, Tarray _) -> slot (* arrays decay to the slot address *)
      | Some (slot, ty) -> load_typed t ~id:e.id slot ty
      | None -> (
          (* a bare function name is a function-pointer constant *)
          match Hashtbl.find_opt t.fun_addr v with
          | Some addr ->
              Runtime.instr t.rt 1;
              addr
          | None -> err "unbound variable %s" v))
  | EUnop (op, a) -> (
      let va = eval t a in
      Runtime.instr t.rt 1;
      match op with
      | Neg -> Int64.neg va
      | Not ->
          if Types.is_ptr (type_of t a) then
            bool_to_i64 (Runtime.ptr_is_null t.rt ~site:(site t e.id) va)
          else bool_to_i64 (Int64.equal va 0L)
      | Bnot ->
          if Types.is_ptr (type_of t a) then
            Int64.lognot (Runtime.ptr_to_int t.rt ~site:(site t e.id) va)
          else Int64.lognot va)
  | EBinop (op, a, b) -> eval_binop t e op a b
  | EAssign (lv, rhs) ->
      let v = eval t rhs in
      let addr, ty = eval_lvalue t lv in
      store_typed t ~id:e.id addr ty v;
      v
  | EDeref _ | EIndex _ | EArrow _ ->
      let addr, ty = eval_lvalue t e in
      (match ty with
      | Tarray _ -> addr (* &subarray *)
      | _ -> load_typed t ~id:e.id addr ty)
  | EAddr lv ->
      let addr, _ = eval_lvalue t lv in
      addr
  | ECall (name, args) -> eval_call t e name args
  | ECallPtr (callee, args) ->
      (* pxr(argument list): resolve the code address first (Fig. 4). *)
      let fp = eval t callee in
      let target = Runtime.ptr_to_int t.rt ~site:(site t e.id) fp in
      let fname =
        match Hashtbl.find_opt t.code_by_va target with
        | Some f -> f
        | None -> err "call through a pointer that is not a function"
      in
      dispatch t e fname (List.map (eval t) args)
  | ECast (ty, a) ->
      let v = eval t a in
      let from_ty = type_of t a in
      if ty = Tint && Types.is_ptr from_ty then
        Runtime.ptr_to_int t.rt ~site:(site t e.id) v
      else v (* (T* )p, (T* )i: bit pattern unchanged *)
  | ECond (c, a, b) ->
      let cv = eval t c in
      Runtime.instr t.rt 1;
      if Runtime.branch t.rt ~site:(site t c.id) (truth cv) then eval t a
      else eval t b
  | EIncr { pre; up; lv } ->
      let addr, ty = eval_lvalue t lv in
      let old = load_typed t ~id:e.id addr ty in
      let step =
        if Types.is_ptr ty then Int64.of_int (elem_size_of_ptr t ty) else 1L
      in
      Runtime.instr t.rt 1;
      let nv = if up then Int64.add old step else Int64.sub old step in
      store_typed t ~id:e.id addr ty nv;
      if pre then nv else old

and eval_binop t e op a b =
  match op with
  | And ->
      let va = eval t a in
      if Runtime.branch t.rt ~site:(site t a.id) (truth va) then
        bool_to_i64 (truth (eval t b))
      else 0L
  | Or ->
      let va = eval t a in
      if Runtime.branch t.rt ~site:(site t a.id) (truth va) then 1L
      else bool_to_i64 (truth (eval t b))
  | Lt | Gt | Le | Ge | Eq | Ne -> (
      let ta = type_of t a and tb = type_of t b in
      let va = eval t a in
      let vb = eval t b in
      if Types.is_ptr ta || Types.is_ptr tb then
        bool_to_i64
          (Runtime.ptr_compare t.rt ~site:(site t e.id) (map_cmp op) va vb)
      else begin
        Runtime.instr t.rt 1;
        bool_to_i64
          (Semantics.eval_comparison (map_cmp op) (Int64.compare va vb))
      end)
  | Add | Sub -> (
      let ta = type_of t a and tb = type_of t b in
      let va = eval t a in
      let vb = eval t b in
      Runtime.instr t.rt 1;
      match (ta, tb, op) with
      | Tptr _, Tint, Add ->
          Semantics.add_int va vb ~elem_size:(elem_size_of_ptr t ta)
      | Tptr _, Tint, Sub ->
          Semantics.sub_int va vb ~elem_size:(elem_size_of_ptr t ta)
      | Tint, Tptr _, Add ->
          Semantics.add_int vb va ~elem_size:(elem_size_of_ptr t tb)
      | Tptr _, Tptr _, Sub ->
          Runtime.ptr_diff t.rt ~site:(site t e.id) va vb
            ~elem_size:(elem_size_of_ptr t ta)
      | _, _, Add -> Int64.add va vb
      | _, _, Sub -> Int64.sub va vb
      | _ -> assert false)
  | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr -> (
      let va = eval t a in
      let vb = eval t b in
      Runtime.instr t.rt 1;
      match op with
      | Mul -> Int64.mul va vb
      | Div ->
          if Int64.equal vb 0L then err "division by zero" else Int64.div va vb
      | Mod ->
          if Int64.equal vb 0L then err "division by zero" else Int64.rem va vb
      | Band -> Int64.logand va vb
      | Bor -> Int64.logor va vb
      | Bxor -> Int64.logxor va vb
      | Shl -> Int64.shift_left va (Int64.to_int vb land 63)
      | Shr -> Int64.shift_right_logical va (Int64.to_int vb land 63)
      | _ -> assert false)

(* Evaluate an lvalue to (address, type of the cell). *)
and eval_lvalue t (e : expr) : Ptr.t * ty =
  match e.e with
  | EVar v ->
      let slot, ty = lookup t v in
      (slot, ty)
  | EDeref p ->
      let addr = eval t p in
      (addr, Types.elem_ty (type_of t p))
  | EIndex (p, i) ->
      let tp = type_of t p in
      let base = eval t p in
      let iv = eval t i in
      Runtime.instr t.rt 2;
      let elem = Types.elem_ty tp in
      ( Semantics.add_int base iv ~elem_size:(Types.sizeof t.env elem),
        elem )
  | EArrow (p, f) -> (
      match type_of t p with
      | Tptr (Tstruct s) ->
          let off, fty = Types.field_info t.env s f in
          let base = eval t p in
          Runtime.instr t.rt 1;
          (Ptr.add base (Int64.of_int off), fty)
      | ty -> err "-> on %a" pp_ty ty)
  | _ -> err "not an lvalue"

and eval_call t (e : expr) name args =
  match (name, args) with
  | "malloc", [ n ] ->
      let bytes = Int64.to_int (eval t n) in
      Runtime.alloc_in t.rt t.heap (max 8 bytes)
  | "pmalloc", [ n ] ->
      let bytes = Int64.to_int (eval t n) in
      Runtime.alloc_in t.rt t.heap (max 8 bytes)
  | ("free" | "pfree"), [ p ] ->
      Runtime.dealloc t.rt (eval t p);
      0L
  | "print", [ v ] ->
      let x = eval t v in
      t.output <- x :: t.output;
      0L
  | _ -> (
      (* A variable holding a function pointer may be called by name. *)
      match List.assoc_opt name t.vars with
      | Some (slot, Tfunptr) ->
          let fp = load_typed t ~id:e.id slot Tfunptr in
          let target = Runtime.ptr_to_int t.rt ~site:(site t e.id) fp in
          let fname =
            match Hashtbl.find_opt t.code_by_va target with
            | Some f -> f
            | None -> err "call through a pointer that is not a function"
          in
          dispatch t e fname (List.map (eval t) args)
      | Some _ -> err "%s is not callable" name
      | None ->
          if not (Hashtbl.mem t.env.Types.funcs name) then
            err "unknown function %s" name;
          dispatch t e name (List.map (eval t) args))

(* Invoke the user function [fname] with evaluated arguments: push a
   frame, bind parameters (pointer params convert on materialization),
   execute, pop. *)
and dispatch t (e : expr) fname arg_values =
  let f = Hashtbl.find t.env.Types.funcs fname in
  if List.length f.params <> List.length arg_values then
    err "%s: arity mismatch" fname;
  let saved_vars = t.vars in
  let saved_top = t.stack_top in
  Runtime.instr t.rt (2 + List.length arg_values);
  t.vars <- [];
  List.iter2
    (fun (pname, pty) v ->
      let slot = bind t pname pty in
      store_typed t ~id:e.id slot pty v)
    f.params arg_values;
  t.vars <- t.vars @ saved_vars;
  let result =
    try
      exec_stmts t f.body;
      0L
    with Return_exc v -> v
  in
  t.vars <- saved_vars;
  t.stack_top <- saved_top;
  result

and exec_stmts t stmts = List.iter (exec_stmt t) stmts

and exec_stmt t = function
  | SExpr e -> ignore (eval t e)
  | SDecl (v, ty, init) ->
      let slot = bind t v ty in
      (match init with
      | Some e ->
          let value = eval t e in
          store_typed t ~id:e.id slot ty value
      | None -> ())
  | SIf (c, a, b) ->
      let cv = eval t c in
      if Runtime.branch t.rt ~site:(site t c.id) (truth cv) then begin
        let saved = t.vars in
        exec_stmts t a;
        t.vars <- saved
      end
      else begin
        let saved = t.vars in
        exec_stmts t b;
        t.vars <- saved
      end
  | SWhile (c, body) ->
      let rec loop () =
        let cv = eval t c in
        if Runtime.branch t.rt ~site:(site t c.id) (truth cv) then begin
          let saved = t.vars in
          (try exec_stmts t body with Continue_exc -> ());
          t.vars <- saved;
          loop ()
        end
      in
      (try loop () with Break_exc -> ())
  | SFor (init, c, step, body) ->
      let saved_outer = t.vars in
      Option.iter (exec_stmt t) init;
      let rec loop () =
        let continue_loop =
          match c with
          | None -> true
          | Some c ->
              let cv = eval t c in
              Runtime.branch t.rt ~site:(site t c.id) (truth cv)
        in
        if continue_loop then begin
          let saved = t.vars in
          (try exec_stmts t body with Continue_exc -> ());
          t.vars <- saved;
          Option.iter (fun e -> ignore (eval t e)) step;
          loop ()
        end
      in
      (try loop () with Break_exc -> ());
      t.vars <- saved_outer
  | SBreak -> raise Break_exc
  | SContinue -> raise Continue_exc
  | SReturn (Some e) -> raise (Return_exc (eval t e))
  | SReturn None -> raise (Return_exc 0L)

type outcome = { result : int64; output : int64 list }

(* Run [main] with integer arguments. *)
let run rt ?plan ~heap (program : program) ~(args : int64 list) : outcome =
  let t = create rt ?plan ~heap program in
  let main =
    match Hashtbl.find_opt t.env.Types.funcs "main" with
    | Some f -> f
    | None -> err "program has no main"
  in
  let call_expr = Ast.call "main" [] in
  let result =
    eval_call t call_expr "main" (List.map (fun v -> Ast.i64 v) args)
  in
  ignore main;
  { result; output = List.rev t.output }

(* A run on a fresh machine: one replica of the program per core, each
   with its own heap (a pool when [persistent] outside the volatile
   mode, else DRAM), interleaved per µ-event by {!Cluster}.  Mini-C has
   no operation boundaries, so a relaxed persistency model treats the
   whole run as one epoch, closed before the costs are read. *)
type fresh = {
  outputs : int64 list array;
  costs : Nvml_arch.Cpu.snapshot array;
  cluster : Cluster.t;
}

let run_fresh ?plan ?timing ?persist ?(cores = 1) ~mode ~persistent program =
  let rt = Runtime.create ?timing ?persist ~mode () in
  let cluster = Cluster.create ~cores rt in
  let heaps =
    Array.init cores (fun i ->
        if persistent && mode <> Runtime.Volatile then
          let name = Printf.sprintf "heap%d" i in
          Runtime.Pool_region (Runtime.create_pool rt ~name ~size:(1 lsl 22))
        else Runtime.Dram_region)
  in
  let rts = Cluster.rts cluster in
  let s0 = Array.map Runtime.snapshot rts in
  let outputs = Array.make cores [] in
  Cluster.run cluster
    (Array.init cores (fun _ core ->
         let r = run rts.(core) ?plan ~heap:heaps.(core) program ~args:[] in
         outputs.(core) <- r.output));
  Runtime.persist_sync rt;
  let cost i crt = Nvml_arch.Cpu.diff_snapshot (Runtime.snapshot crt) s0.(i) in
  { outputs; costs = Array.mapi cost rts; cluster }

(** Table 1 — the paper's Class List example: a [GraphNode] class with nine
    properties (two cache lines) and a [NodeList] wrapper whose elements
    array holds GraphNodes; [findGraphNode] is speculatively optimized on
    the position property and on the list's element type. We run the
    equivalent MiniJS program and dump the live Class List. *)

module E = Tce_engine.Engine

let source =
  {|
function ClassPosition(px, py) {
  this.px = px;
  this.py = py;
}
function GraphNode(id) {
  this.id = id;
  this.weight = id * 2;
  this.cost = 0;
  this.heat = 0;
  this.rank = 0;
  this.position = new ClassPosition(id, id + 1);
  this.flags = 0;
  this.extra1 = 0;
  this.extra2 = 0;
}
function NodeList(n) {
  this.count = n;
  this.tagv = 7;
  this.sum = 0;
}
function buildList(n) {
  var l = new NodeList(n);
  for (var i = 0; i < n; i++) {
    l[i] = new GraphNode(i);
  }
  return l;
}
function findGraphNode(list, key) {
  var n = list.count;
  for (var i = 0; i < n; i++) {
    var node = list[i];
    var p = node.position;
    if (p.px == key) { return node.id; }
  }
  return 0 - 1;
}
var nodes = buildList(64);
function bench() {
  var acc = 0;
  for (var k = 0; k < 64; k++) {
    acc = (acc + findGraphNode(nodes, k)) & 268435455;
  }
  return acc;
}
|}

let run () = fst (Harness.warm ~iterations:10 source)

let title = "Table 1 — Class List structure (live dump after optimizing findGraphNode)"

(** The live Class List after {!run} in the paper's layout: a header
    line, one line per entry of the example's classes, a blank line. *)
let render () =
  let t = run () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "entry                     InitMap  ValidMap SpeculateMap  profiled classes [FunctionList]\n";
  let reg = t.E.heap.Tce_vm.Heap.reg in
  let class_name id =
    if id = Tce_vm.Layout.smi_classid then "SMI"
    else
      match Tce_vm.Hidden_class.Registry.find reg id with
      | Some c -> c.Tce_vm.Hidden_class.name
      | None -> Printf.sprintf "?%d" id
  in
  let fn_name oid =
    match Hashtbl.find_opt t.E.opt_table oid with
    | Some code -> code.Tce_jit.Lir.name
    | None -> Printf.sprintf "opt%d" oid
  in
  List.iter
    (fun (cid, line, e) ->
      (* only show the classes from the example, not engine internals *)
      let name = class_name cid in
      if
        String.length name >= 4
        && (String.sub name 0 4 = "Grap" || String.sub name 0 4 = "Node"
           || String.sub name 0 4 = "Clas")
      then
        Buffer.add_string buf
          (Fmt.str "%a@."
             (Tce_core.Class_list.pp_entry ~class_name ~fn_name)
             (cid, line, e)))
    (Tce_core.Class_list.dump t.E.cl);
  Buffer.add_char buf '\n';
  Buffer.contents buf

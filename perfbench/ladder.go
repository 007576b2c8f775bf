package main

import (
	"bytes"
	"fmt"
)

// rung is one program of the estimate-large size ladder.
type rung struct {
	Name string
	Src  []byte
}

// ladder returns the synthetic size ladder. It is fixed, so the
// recorded expected estimates hold for every seed.
//
// The if-chain rungs grow one function's block count (about two blocks
// per if), switch1000 gives one block a thousand successors, nest500
// grows nesting depth, and funcs500 grows the function count and the
// call graph, with recursive cycles. The ladder stops at 2000 ifs so
// that the dense intra-procedural solver still finishes every rung in
// well under a second.
//
// Its order is the order of every pass. Each rung pays for sweeping
// the garbage of the rung before it, so the two largest rungs come
// last, where that cost falls on if1000 and if250, far from the median
// op. The median rung, funcs500, costs well apart from its neighbours,
// so that the median op does not jump between rungs from run to run.
func ladder() []rung {
	return []rung{
		{"if250", ifChain(250)},
		{"if500", ifChain(500)},
		{"switch1000", switchTable(1000)},
		{"funcs500", manyFuncs(50, 10)},
		{"nest500", nest(500)},
		{"if2000", ifChain(2000)},
		{"if1000", ifChain(1000)},
	}
}

// ifChain is main with n sequential one-armed ifs. The conditions
// rotate through four shapes so that different branch heuristics fire.
func ifChain(n int) []byte {
	var b bytes.Buffer
	b.WriteString("int main() {\n  int x;\n  int y;\n  x = getchar();\n  y = 0;\n")
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "  if (x > %d) y = y + %d;\n", i%97, i%13)
		case 1:
			fmt.Fprintf(&b, "  if (x == %d) y = y - 1;\n", i%89)
		case 2:
			fmt.Fprintf(&b, "  if (y < 0) y = %d;\n", i%7)
		default:
			fmt.Fprintf(&b, "  if (x != y) x = x + 1;\n")
		}
	}
	b.WriteString("  return y;\n}\n")
	return b.Bytes()
}

// switchTable is main with one switch of n cases and a default.
func switchTable(n int) []byte {
	var b bytes.Buffer
	b.WriteString("int main() {\n  int x;\n  int y;\n  x = getchar();\n  y = 0;\n  switch (x) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  case %d: y = y + %d; break;\n", i, i%11)
	}
	b.WriteString("  default: y = 1;\n  }\n  return y;\n}\n")
	return b.Bytes()
}

// nest is main with depth nested statements: ifs, with a while loop
// at every tenth level.
func nest(depth int) []byte {
	var b bytes.Buffer
	b.WriteString("int main() {\n  int x;\n  int y;\n  int i;\n  x = getchar();\n  y = 0;\n  i = 0;\n")
	for d := 0; d < depth; d++ {
		if d%10 == 9 {
			fmt.Fprintf(&b, "while (i < %d) { i = i + 1;\n", d)
		} else {
			fmt.Fprintf(&b, "if (x > %d) { y = y + 1;\n", d)
		}
	}
	b.WriteString("y = y * 2;\n")
	for d := 0; d < depth; d++ {
		b.WriteString("}\n")
	}
	b.WriteString("  return y;\n}\n")
	return b.Bytes()
}

// manyFuncs is chains×length functions plus main. Each chain is a call
// chain whose last function calls back to its head, so every chain is
// one recursive call-graph cycle; every other function also recurses
// on itself. main calls every chain head.
func manyFuncs(chains, length int) []byte {
	var b bytes.Buffer
	for c := 0; c < chains; c++ {
		for k := 0; k < length; k++ {
			fmt.Fprintf(&b, "int f%d_%d(int n);\n", c, k)
		}
	}
	for c := 0; c < chains; c++ {
		for k := 0; k < length; k++ {
			next := (k + 1) % length
			fmt.Fprintf(&b, "int f%d_%d(int n) {\n  int r;\n  if (n <= 0) return %d;\n  r = f%d_%d(n - 1);\n", c, k, k, c, next)
			if k%2 == 1 {
				fmt.Fprintf(&b, "  if (r > %d) r = r + f%d_%d(n - 2);\n", k, c, k)
			}
			b.WriteString("  return r + 1;\n}\n")
		}
	}
	b.WriteString("int main() {\n  int s;\n  s = 0;\n")
	for c := 0; c < chains; c++ {
		fmt.Fprintf(&b, "  s = s + f%d_0(%d);\n", c, 3+c%5)
	}
	b.WriteString("  return s;\n}\n")
	return b.Bytes()
}

// braceDepth is the deepest brace nesting in src.
func braceDepth(src []byte) int {
	depth, deepest := 0, 0
	for _, c := range src {
		switch c {
		case '{':
			depth++
			if depth > deepest {
				deepest = depth
			}
		case '}':
			depth--
		}
	}
	return deepest
}

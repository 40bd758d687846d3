// Deeplearning: trains one of the paper's networks at a configurable batch
// size under every memory-management system and prints the comparison —
// the interactive version of Figures 5–7 and Table 1.
//
// Run with:
//
//	go run ./examples/deeplearning                      # ResNet-53, batch sweep
//	go run ./examples/deeplearning -model vgg16 -batch 100
//	go run ./examples/deeplearning -gpu gtx1070 -model vgg16 -batch 60
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/lms"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/workloads"
)

func main() {
	var (
		model = flag.String("model", "resnet53", "vgg16 | darknet19 | resnet53 | rnn")
		batch = flag.Int("batch", 0, "batch size (0 = sweep through the paper's range)")
		gpu   = flag.String("gpu", "3080ti", "3080ti | gtx1070")
	)
	flag.Parse()

	spec, err := dnn.ParseModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	p := workloads.Platform{GPU: gpudev.RTX3080Ti(), Gen: pcie.Gen4}
	if strings.EqualFold(*gpu, "gtx1070") {
		p = workloads.Platform{GPU: gpudev.GTX1070(), Gen: pcie.Gen3}
	}

	batches := []int{*batch}
	if *batch == 0 {
		batches = map[string][]int{
			"VGG-16":     {40, 75, 110, 150},
			"Darknet-19": {100, 171, 260, 360},
			"ResNet-53":  {30, 56, 100, 150},
			"RNN":        {100, 172, 240, 300},
		}[spec.Name]
	}

	fmt.Printf("training %s on %s (%s)\n", spec.Name, p.GPU.Name, p.Gen)
	fmt.Printf("capacity %.1f GB; footprint slope %.0f MB/sample\n\n",
		float64(p.GPU.MemoryBytes)/1e9, float64(spec.PerSampleBytes())/1e6)
	fmt.Printf("%-7s %-10s | %-18s %-18s %-18s %-18s %-18s\n",
		"batch", "footprint", "No-UVM", "UVM-opt", "UvmDiscard", "UvmDiscardLazy", "PyTorch-LMS")

	for _, b := range batches {
		row := fmt.Sprintf("%-7d %-10s |", b,
			fmt.Sprintf("%.1f GB", float64(spec.FootprintBytes(b))/1e9))
		for _, sys := range []workloads.System{
			workloads.NoUVM, workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy,
		} {
			r, err := dnn.Train(p, sys, dnn.TrainConfig{Model: spec, Batch: b})
			if err != nil {
				row += fmt.Sprintf(" %-18s", "does not fit")
				continue
			}
			row += fmt.Sprintf(" %-18s", cell(r))
		}
		r, err := lms.Train(p, lms.Config{Model: spec, Batch: b})
		if err != nil {
			row += fmt.Sprintf(" %-18s", "does not fit")
		} else {
			row += fmt.Sprintf(" %-18s", cell(r))
		}
		fmt.Println(row)
	}
	fmt.Println("\ncells are throughput img/s / PCIe traffic GB")
}

func cell(r dnn.TrainResult) string {
	return fmt.Sprintf("%.0f img/s %6.1fGB", r.Throughput, r.TrafficGB())
}

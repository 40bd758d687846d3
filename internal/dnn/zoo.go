package dnn

import (
	"fmt"
	"strings"

	"uvmdiscard/internal/units"
)

// The zoo builds the four networks the paper trains (§7.5): VGG-16,
// Darknet-19, and ResNet-53 on ImageNet (224x224x3 fp32 inputs), and a
// character RNN on the Shakespeare corpus. Layer geometry fixes activation
// and weight sizes; cuDNN workspace sizes are then calibrated against the
// paper's reported CUDA allocations at two batch sizes:
//
//	VGG-16:     12.0 GB @ 75,  21.1 GB @ 150
//	Darknet-19: 11.2 GB @ 171, 23.4 GB @ 360
//	ResNet-53:  10.8 GB @ 56,  28.5 GB @ 150
//	RNN:        10.2 GB @ 150, 20.0 GB @ 300
const (
	imageNetSample units.Size = 224 * 224 * 3 * 4
	imageNetLabel  units.Size = 4 * units.KiB
	bytesPerFloat             = 4
)

// conv builds a 3x3 (or kxk) convolution layer spec.
func conv(name string, outHW, cin, cout, k int) LayerSpec {
	return LayerSpec{
		Name:           name,
		OutPerSample:   units.Size(outHW * outHW * cout * bytesPerFloat),
		WeightBytes:    units.Size(k*k*cin*cout*bytesPerFloat + cout*bytesPerFloat),
		FlopsPerSample: 2 * float64(k*k*cin*cout*outHW*outHW),
	}
}

// fc builds a fully connected layer spec.
func fc(name string, in, out int) LayerSpec {
	return LayerSpec{
		Name:           name,
		OutPerSample:   units.Size(out * bytesPerFloat),
		WeightBytes:    units.Size((in + 1) * out * bytesPerFloat),
		FlopsPerSample: 2 * float64(in*out),
	}
}

func mustCalibrate(m *ModelSpec, b1 int, g1 float64, b2 int, g2 float64) *ModelSpec {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if err := m.Calibrate(b1, units.Size(g1*1e9), b2, units.Size(g2*1e9)); err != nil {
		panic(err)
	}
	return m
}

// VGG16 returns the VGG-16 classifier (Simonyan & Zisserman).
func VGG16() *ModelSpec {
	m := &ModelSpec{
		Name:        "VGG-16",
		SampleBytes: imageNetSample,
		LabelBytes:  imageNetLabel,
		// Calibrated so Darknet-UVM VGG-16 training reaches Table 1's
		// measured 29 img/s at batch 40 on the GTX 1070. (Our FLOP counts
		// include the multiply and the add of each MAC.)
		Efficiency: 0.42,
		Layers: []LayerSpec{
			conv("conv1_1", 224, 3, 64, 3),
			conv("conv1_2", 224, 64, 64, 3),
			conv("conv2_1", 112, 64, 128, 3),
			conv("conv2_2", 112, 128, 128, 3),
			conv("conv3_1", 56, 128, 256, 3),
			conv("conv3_2", 56, 256, 256, 3),
			conv("conv3_3", 56, 256, 256, 3),
			conv("conv4_1", 28, 256, 512, 3),
			conv("conv4_2", 28, 512, 512, 3),
			conv("conv4_3", 28, 512, 512, 3),
			conv("conv5_1", 14, 512, 512, 3),
			conv("conv5_2", 14, 512, 512, 3),
			conv("conv5_3", 14, 512, 512, 3),
			fc("fc6", 25088, 4096),
			fc("fc7", 4096, 4096),
			fc("fc8", 4096, 1000),
		},
	}
	return mustCalibrate(m, 75, 12.0, 150, 21.1)
}

// Darknet19 returns the Darknet-19 classifier (YOLO's backbone).
func Darknet19() *ModelSpec {
	layers := []LayerSpec{
		conv("conv1", 224, 3, 32, 3),
		conv("conv2", 112, 32, 64, 3),
		conv("conv3", 56, 64, 128, 3),
		conv("conv4", 56, 128, 64, 1),
		conv("conv5", 56, 64, 128, 3),
		conv("conv6", 28, 128, 256, 3),
		conv("conv7", 28, 256, 128, 1),
		conv("conv8", 28, 128, 256, 3),
		conv("conv9", 14, 256, 512, 3),
		conv("conv10", 14, 512, 256, 1),
		conv("conv11", 14, 256, 512, 3),
		conv("conv12", 14, 512, 256, 1),
		conv("conv13", 14, 256, 512, 3),
		conv("conv14", 7, 512, 1024, 3),
		conv("conv15", 7, 1024, 512, 1),
		conv("conv16", 7, 512, 1024, 3),
		conv("conv17", 7, 1024, 512, 1),
		conv("conv18", 7, 512, 1024, 3),
		conv("conv19", 7, 1024, 1000, 1),
	}
	m := &ModelSpec{
		Name:        "Darknet-19",
		SampleBytes: imageNetSample,
		LabelBytes:  imageNetLabel,
		Efficiency:  0.30,
		Layers:      layers,
	}
	return mustCalibrate(m, 171, 11.2, 360, 23.4)
}

// ResNet53 returns the 53-layer residual classifier the paper trains.
func ResNet53() *ModelSpec {
	layers := []LayerSpec{
		conv("conv1", 224, 3, 32, 3),
		conv("conv2", 112, 32, 64, 3),
	}
	block := func(stage, n, hw, cmid, cout int) {
		for i := 0; i < n; i++ {
			layers = append(layers,
				conv(fmt.Sprintf("res%d_%d_a", stage, i), hw, cout, cmid, 1),
				conv(fmt.Sprintf("res%d_%d_b", stage, i), hw, cmid, cout, 3),
			)
		}
	}
	block(1, 1, 112, 32, 64)
	layers = append(layers, conv("down2", 56, 64, 128, 3))
	block(2, 2, 56, 64, 128)
	layers = append(layers, conv("down3", 28, 128, 256, 3))
	block(3, 8, 28, 128, 256)
	layers = append(layers, conv("down4", 14, 256, 512, 3))
	block(4, 8, 14, 256, 512)
	layers = append(layers, conv("down5", 7, 512, 1024, 3))
	block(5, 4, 7, 512, 1024)
	layers = append(layers, fc("fc", 1024, 1000))
	m := &ModelSpec{
		Name:        "ResNet-53",
		SampleBytes: imageNetSample,
		LabelBytes:  imageNetLabel,
		Efficiency:  0.30,
		Layers:      layers,
	}
	return mustCalibrate(m, 56, 10.8, 150, 28.5)
}

// RNN returns the character-level recurrent network trained on the
// Shakespeare corpus — the paper's compute-intensive case: large matrix
// multiplies per timestep over comparatively small activations.
func RNN() *ModelSpec {
	const (
		hidden   = 1024
		segments = 16 // unrolled sequence segments stored for backprop
		seqPer   = 36 // timesteps per segment
	)
	var layers []LayerSpec
	for i := 0; i < segments; i++ {
		layers = append(layers, LayerSpec{
			Name:         fmt.Sprintf("rnn_seg%d", i),
			OutPerSample: units.Size(seqPer * hidden * 2 * bytesPerFloat * 12), // states + cell scratch kept for backprop
			WeightBytes:  units.Size(8_300_000),
			// Three stacked recurrent layers' matmuls per timestep.
			FlopsPerSample: float64(seqPer) * 3 * 2 * 2 * float64(hidden) * float64(hidden) * 2,
		})
	}
	m := &ModelSpec{
		Name:        "RNN",
		SampleBytes: 64 * units.KiB,
		LabelBytes:  64 * units.KiB,
		Efficiency:  0.45,
		Layers:      layers,
	}
	return mustCalibrate(m, 150, 10.2, 300, 20.0)
}

// Zoo returns all four networks in the paper's order.
func Zoo() []*ModelSpec {
	return []*ModelSpec{VGG16(), Darknet19(), ResNet53(), RNN()}
}

// ParseModel resolves a zoo network by its name, ignoring case, with or
// without the hyphen: VGG-16/vgg16, Darknet-19, ResNet-53 or RNN.
func ParseModel(name string) (*ModelSpec, error) {
	for _, m := range Zoo() {
		if strings.EqualFold(name, m.Name) || strings.EqualFold(name, strings.ReplaceAll(m.Name, "-", "")) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown model %q", name)
}
